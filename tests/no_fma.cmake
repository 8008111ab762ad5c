# Fails when the simulator library holds a fused multiply-add. The
# scalar and AVX2 kernels round every product the same way only
# because neither path contracts a multiply and an add into one
# rounding (sim/simd_avx2.cpp is built with -mavx2 and never -mfma),
# and every KernelPinned.* bit pin rests on that. Prints SKIPPED when
# objdump is not installed; the test's SKIP_REGULAR_EXPRESSION turns
# that into a skip.
#
#   cmake -DLIBRARY=<libsmq_sim.a> -P no_fma.cmake
if(NOT DEFINED LIBRARY)
    message(FATAL_ERROR "no_fma: -DLIBRARY=... is required")
endif()

find_program(OBJDUMP objdump)
if(NOT OBJDUMP)
    message("SKIPPED: objdump not found")
    return()
endif()

execute_process(
    COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${LIBRARY}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE disassembly
    ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "objdump -d exited ${status}:\n${stderr}")
endif()

string(REGEX MATCHALL "[\t ]vfn?m(add|sub)[a-z0-9]*[^\n]*" fused
       "${disassembly}")
list(LENGTH fused count)
if(count GREATER 0)
    list(GET fused 0 first)
    message(FATAL_ERROR
        "${LIBRARY}: ${count} fused multiply-add instructions, "
        "e.g.${first}")
endif()
message(STATUS "no fused multiply-add in ${LIBRARY}")
