# Golden stdout: runs one binary and fails unless the SHA-256 of its stdout
# is EXPECTED. The experiment binaries print the paper's tables and figures,
# so a refactor that must not change a number is checked against the bytes
# the code gave before it, not only against itself.
#
#   cmake -DBINARY=<executable> -DEXPECTED=<sha256 hex> [-DARGS=<flags>]
#         [-DSTDIN=<file>] -P golden_stdout.cmake
#
# ARGS, a CMake list, is the binary's command line. STDIN, when given, is
# piped into the binary's standard input (through `cmake -E cat`, so the
# binary reads a pipe, not a file). stderr (progress lines) is not part of
# the digest.

foreach(var BINARY EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_stdout: -D${var}= is required")
  endif()
endforeach()

set(feed)
if(DEFINED STDIN)
  set(feed COMMAND ${CMAKE_COMMAND} -E cat ${STDIN})
endif()
execute_process(
  ${feed}
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE log
  RESULTS_VARIABLE codes)

foreach(code IN LISTS codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "golden_stdout: ${BINARY} ${ARGS} exit codes ${codes}\n${log}")
  endif()
endforeach()

string(SHA256 digest "${out}")
if(NOT digest STREQUAL EXPECTED)
  message(FATAL_ERROR
    "golden_stdout: ${BINARY} ${ARGS} stdout SHA-256 is\n"
    "  ${digest}\n"
    "expected\n  ${EXPECTED}")
endif()
message(STATUS "golden_stdout: ${BINARY} ${ARGS} ${digest}")
