# Golden transcript: pipes a fixed --small loadgen stream through
# culinary_serve and fails unless the SHA-256 of the server's stdout is
# EXPECTED. Every suggest, score, fingerprint and similar answer in the
# stream is part of the digest, so a refactor that must not change answers
# is checked against the bytes the code gave before it, not only against
# itself.
#
#   cmake -DLOADGEN=<loadgen> -DSERVE=<culinary_serve> -DBATCH=<n>
#         -DEXPECTED=<sha256 hex> [-DK=<k>] [-DSERVE_ARGS=<flags>]
#         -P golden_transcript.cmake
#
# BATCH is loadgen's --batch (0 = one request per line) and K its --k, the
# suggest and neighbour budget (default 10). SERVE_ARGS, a CMake list, is
# appended to the server's command line.

foreach(var LOADGEN SERVE BATCH EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_transcript: -D${var}= is required")
  endif()
endforeach()
if(NOT DEFINED K)
  set(K 10)
endif()

execute_process(
  COMMAND ${LOADGEN} --small --count=2000 --k=${K} --batch=${BATCH} --shutdown
  COMMAND ${SERVE} --small --threads=2 ${SERVE_ARGS}
  OUTPUT_VARIABLE transcript
  ERROR_VARIABLE server_log
  RESULTS_VARIABLE exit_codes)

foreach(code IN LISTS exit_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "golden_transcript: pipeline exit codes ${exit_codes}\n${server_log}")
  endif()
endforeach()

string(SHA256 digest "${transcript}")
if(NOT digest STREQUAL EXPECTED)
  message(FATAL_ERROR
    "golden_transcript: --batch=${BATCH} --k=${K} ${SERVE_ARGS} stdout "
    "SHA-256 is\n"
    "  ${digest}\n"
    "expected\n  ${EXPECTED}")
endif()
message(STATUS
  "golden_transcript: --batch=${BATCH} --k=${K} ${SERVE_ARGS} ${digest}")
