# Runs `GRID_TOOL --benchmarks 1 --devices 1` once with SMQ_SIM_MEM_MB
# unset and once under each malformed value. Each malformed run must
# warn once, exit 0 and write the grid of the default 4 GiB budget.
#
#   cmake -DGRID_TOOL=<smq_grid_tool> -DWORK_DIR=<directory to run in>
#         -P sim_mem_env.cmake
foreach(var GRID_TOOL WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "sim_mem_env: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(args --benchmarks 1 --devices 1 --out)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=SMQ_SIM_MEM_MB
            "${GRID_TOOL}" ${args} default.txt
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "default budget run exited ${status}:\n${stderr}")
endif()

# -1 wrapped to ~2^64 bytes, 2^44 MiB wrapped to 0 bytes (every dense
# allocation TooLarge), abc and 0 were dropped without a word.
foreach(value -1 17592186044416 abc 0)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env SMQ_SIM_MEM_MB=${value}
                "${GRID_TOOL}" ${args} grid.txt
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status
        ERROR_VARIABLE stderr)
    if(NOT status EQUAL 0)
        message(SEND_ERROR "SMQ_SIM_MEM_MB=${value} exited ${status}:\n"
                           "${stderr}")
    endif()
    string(REGEX MATCHALL "warning: ignoring SMQ_SIM_MEM_MB='[^']*'"
           warnings "${stderr}")
    list(LENGTH warnings count)
    if(NOT count EQUAL 1 OR NOT warnings STREQUAL
       "warning: ignoring SMQ_SIM_MEM_MB='${value}'")
        message(SEND_ERROR "SMQ_SIM_MEM_MB=${value}: want one warning, "
                           "got:\n${stderr}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK_DIR}/grid.txt" "${WORK_DIR}/default.txt"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(SEND_ERROR "SMQ_SIM_MEM_MB=${value} changed the grid")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
