# ctest helper: runs CMD with the space-separated ARGS and passes only
# when the command exits nonzero and prints its usage text, i.e. an
# unknown or removed flag is refused rather than ignored.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited 0; expected a usage error")
endif()
if(NOT out MATCHES "usage:")
    message(FATAL_ERROR "'${CMD} ${ARGS}' printed no usage text:\n${out}")
endif()
