# Runs `bench_fig2_scores --quick --jobs 2` in a fresh directory and
# checks the grid it writes byte for byte against the reference grid,
# its manifest's cell tallies against the reference's, and its stderr
# for one report line per cell. Then runs it again in the same
# directory: the rerun must read the grid back from the cache (no cell
# executed, no cell reported) and print the same stdout.
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
    OUTPUT_VARIABLE first_stdout
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_fig2_scores exited ${status}:\n${stderr}")
endif()

# The cell report: "  <benchmark> @ <device> = <cell>", 26 x 9 lines.
string(REGEX MATCHALL "\n  [^\n]+ @ [^\n]+ = " reported "\n${stderr}")
list(LENGTH reported n_reported)
if(NOT n_reported EQUAL 234)
    message(FATAL_ERROR "stderr reports ${n_reported} cells, want 234:\n${stderr}")
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

execute_process(
    COMMAND "${BENCH}" --quick --jobs 2
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE rerun_stdout
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "cached bench_fig2_scores exited ${status}:\n${stderr}")
endif()
string(FIND "${stderr}" "(reusing cached grid fig2_cache_150_r2.txt)" reused)
if(reused EQUAL -1)
    message(FATAL_ERROR "the rerun did not reuse the cached grid:\n${stderr}")
endif()
if(stderr MATCHES " @ ")
    message(FATAL_ERROR "the rerun reported cells it did not run:\n${stderr}")
endif()
if(NOT rerun_stdout STREQUAL first_stdout)
    message(FATAL_ERROR "stdout from the cached grid differs from the first run")
endif()
file(READ "${WORK_DIR}/bench_fig2_scores_manifest.json" manifest)
if(manifest MATCHES "\"jobs\\.cells\\.")
    message(FATAL_ERROR "the rerun executed cells (jobs.cells.* in its manifest)")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
