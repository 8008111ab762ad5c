# Runs `bench_fig2_scores --quick --jobs 2` in a fresh directory and
# checks the grid it writes byte for byte against the reference grid,
# and its manifest's cell tallies against the reference's:
#
#   cmake -DBENCH=<bench_fig2_scores> -DREFERENCE=<fig2_quick_grid.txt>
#         -DWORK_DIR=<directory to run in> -P fig2_quick_grid.cmake
#
# WORK_DIR is deleted and recreated first, so no cached grid is reused.
foreach(var BENCH REFERENCE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fig2_quick_grid: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${BENCH}" --quick --jobs 2
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_fig2_scores exited ${status}:\n${stderr}")
endif()

set(grid "${WORK_DIR}/fig2_cache_150_r2.txt")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${grid}" "${REFERENCE}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${grid} differs from ${REFERENCE}")
endif()

file(READ "${WORK_DIR}/bench_fig2_scores_manifest.json" manifest)
foreach(tally ok:184 too_large:44 skipped:6)
    string(REPLACE ":" ";" tally "${tally}")
    list(GET tally 0 cells)
    list(GET tally 1 want)
    string(JSON got ERROR_VARIABLE missing
           GET "${manifest}" counters "jobs.cells.${cells}")
    if(missing OR NOT got EQUAL want)
        message(FATAL_ERROR
            "jobs.cells.${cells} = '${got}' in the manifest, want ${want}")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
