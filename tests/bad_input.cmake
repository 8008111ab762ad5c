# Runs TOOL on bad command lines, each in a fresh empty directory, and
# checks that every one exits 2 (usage), prints nothing on stdout and
# leaves the directory empty: no cache, manifest, journal or history.
#
#   cmake -DTOOL=<binary> -DVALUE_FLAG=<flag> -DNUMERIC_FLAG=<flag>
#         -DWORK_DIR=<directory to run in> [-DPREFIX="<args>"]
#         [-DEXTRA_ROWS="<args>|<args>..."] -P bad_input.cmake
#
# The rows: PREFIX followed by an unknown flag, VALUE_FLAG with no
# value, NUMERIC_FLAG given x, -1 and as --name=2, and each EXTRA_ROWS
# entry. WORK_DIR is deleted and recreated before every row.
foreach(var TOOL VALUE_FLAG NUMERIC_FLAG WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bad_input: -D${var}=... is required")
    endif()
endforeach()

set(rows "--bogus" "${VALUE_FLAG}" "${NUMERIC_FLAG} x" "${NUMERIC_FLAG} -1"
    "${NUMERIC_FLAG}=2")
if(DEFINED EXTRA_ROWS)
    string(REPLACE "|" ";" extra "${EXTRA_ROWS}")
    list(APPEND rows ${extra})
endif()

foreach(row IN LISTS rows)
    file(REMOVE_RECURSE "${WORK_DIR}")
    file(MAKE_DIRECTORY "${WORK_DIR}")
    separate_arguments(args UNIX_COMMAND "${PREFIX} ${row}")
    execute_process(
        COMMAND "${TOOL}" ${args}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status
        OUTPUT_VARIABLE stdout
        ERROR_VARIABLE stderr
        TIMEOUT 120)
    if(NOT status EQUAL 2)
        message(SEND_ERROR "'${PREFIX} ${row}' exited ${status}, want 2:\n"
                           "${stderr}")
    endif()
    if(NOT stdout STREQUAL "")
        message(SEND_ERROR "'${PREFIX} ${row}' printed:\n${stdout}")
    endif()
    file(GLOB left "${WORK_DIR}/*")
    if(left)
        message(SEND_ERROR "'${PREFIX} ${row}' wrote ${left}")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
