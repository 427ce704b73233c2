# Runs one golden CLI case and diffs it byte-for-byte.
#
#   cmake -DHETSIM=<hetsim binary> -DARGS="<argv, space separated>"
#         -DRC=<expected exit code> -DGOLDEN=<expected stdout file>
#         [-DFIRST_LINE=ON] -P check.cmake
#
# The case passes when the exit code equals RC, stdout equals the
# golden file byte for byte and stderr is empty.  With FIRST_LINE only
# stdout's first line (with its newline) is compared: error cases pin
# their error line, and the usage text that follows it is pinned once,
# by the usage case.

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${HETSIM}" ${argv}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
file(READ "${GOLDEN}" expected)
if(FIRST_LINE)
    string(FIND "${out}" "\n" eol)
    if(NOT eol EQUAL -1)
        math(EXPR eol "${eol} + 1")
        string(SUBSTRING "${out}" 0 ${eol} out)
    endif()
endif()

if(NOT rc STREQUAL RC)
    message(FATAL_ERROR "hetsim ${ARGS}: exit code ${rc}, want ${RC}")
endif()
if(NOT err STREQUAL "")
    message(FATAL_ERROR "hetsim ${ARGS}: unexpected stderr:\n${err}")
endif()
if(NOT out STREQUAL expected)
    get_filename_component(name "${GOLDEN}" NAME)
    file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual" "${out}")
    message(FATAL_ERROR "hetsim ${ARGS}: stdout differs from ${GOLDEN}; "
        "got ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
