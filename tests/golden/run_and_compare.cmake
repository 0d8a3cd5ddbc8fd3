# Run a bench binary that writes a JSON result file, then compare the
# file byte-for-byte against the checked-in golden.
#
# Usage:
#   cmake -DBIN=<binary> -DARGS=<;-separated args> -DOUT=<produced file>
#         -DGOLDEN=<reference file> -P run_and_compare.cmake
#
# Regenerating goldens (after an intentional change to the measured
# numbers or the JSON schema):
#   build/bench/tcpni_bench table1 --json tests/golden/table1.json
#   build/bench/tcpni_bench figure12 --n 8 --particles 2 \
#       --json tests/golden/figure12.json

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    file(READ ${OUT} produced)
    file(READ ${GOLDEN} expected)
    message(FATAL_ERROR
        "golden mismatch: ${OUT} differs from ${GOLDEN}\n"
        "--- produced ---\n${produced}\n"
        "--- expected ---\n${expected}\n"
        "If the change is intentional, regenerate the golden "
        "(see tests/golden/run_and_compare.cmake).")
endif()
