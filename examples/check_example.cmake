# Run one example and pass when it exits 0 and its stdout matches a
# regular expression:
#   cmake -DEXAMPLE=<exe> -DARGS="<args>" -DEXPECT=<regex> -P check_example.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXAMPLE} did not print /${EXPECT}/\n${out}")
endif()
