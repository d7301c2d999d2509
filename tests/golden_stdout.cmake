# Golden stdout: runs one binary and fails unless the SHA-256 of its stdout
# is EXPECTED. The experiment binaries print the paper's tables and figures,
# so a refactor that must not change a number is checked against the bytes
# the code gave before it, not only against itself.
#
#   cmake -DBINARY=<executable> -DEXPECTED=<sha256 hex> [-DARGS=<flags>]
#         -P golden_stdout.cmake
#
# ARGS, a CMake list, is the binary's command line. stderr (progress lines)
# is not part of the digest.

foreach(var BINARY EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_stdout: -D${var}= is required")
  endif()
endforeach()

execute_process(
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE log
  RESULT_VARIABLE code)

if(NOT code EQUAL 0)
  message(FATAL_ERROR "golden_stdout: ${BINARY} ${ARGS} exited ${code}\n${log}")
endif()

string(SHA256 digest "${out}")
if(NOT digest STREQUAL EXPECTED)
  message(FATAL_ERROR
    "golden_stdout: ${BINARY} ${ARGS} stdout SHA-256 is\n"
    "  ${digest}\n"
    "expected\n  ${EXPECTED}")
endif()
message(STATUS "golden_stdout: ${BINARY} ${ARGS} ${digest}")
