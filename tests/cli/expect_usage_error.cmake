# Run a binary that must reject its command line: it has to exit with
# status 1 within a second and name the offending flag on stderr.
#
# Usage:
#   cmake -DBIN=<binary> -DARGS=<;-separated args> -DEXPECT=<regex>
#         -P expect_usage_error.cmake

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 1)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
        "${BIN} ${ARGS}: expected exit status 1, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${BIN} ${ARGS}: stderr does not match '${EXPECT}':\n${err}")
endif()
