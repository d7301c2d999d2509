# Parses every JSON document two tool runs export with CMake's own parser
# (string(JSON), CMake 3.19 or newer):
#
# - the metrics and trace files of `culinary pairing`;
# - the metrics file, every stdout line (answers, parse errors, health,
#   reload, shutdown) and the stderr SLO summary of `culinary_serve --slo`
#   fed a loadgen stream with interleaved admin and garbage lines.
#
#   cmake -DCULINARY=<culinary> -DLOADGEN=<loadgen> -DSERVE=<culinary_serve>
#         -P json_exports_valid.cmake
#
# The parser rejects a bare inf or a missing comma but accepts raw control
# bytes inside strings; the writer's escape tests cover those.

foreach(var CULINARY LOADGEN SERVE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "json_exports_valid: -D${var}= is required")
  endif()
endforeach()

function(expect_json_object what text)
  string(JSON type ERROR_VARIABLE error TYPE "${text}")
  if(NOT error STREQUAL "NOTFOUND" OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR
      "json_exports_valid: ${what} is not a JSON object: ${error}\n${text}")
  endif()
endfunction()

execute_process(
  COMMAND ${CULINARY} pairing --small --region=ITA --null-recipes=500
          --metrics-out=json_exports_cli_metrics.json
          --trace-out=json_exports_cli_trace.json
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE log)
if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "json_exports_valid: culinary pairing exited ${code}\n${log}")
endif()

execute_process(
  COMMAND ${LOADGEN} --small --count=40 --reload-every=7 --health-every=9
          --garbage-every=11 --deadline-ms=500 --shutdown
  COMMAND ${SERVE} --small --threads=2 --slo
          --metrics-out=json_exports_serve_metrics.json
  OUTPUT_VARIABLE answers
  ERROR_VARIABLE server_log
  RESULTS_VARIABLE codes)
foreach(code IN LISTS codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "json_exports_valid: pipeline exit codes ${codes}\n${server_log}")
  endif()
endforeach()

foreach(file json_exports_cli_metrics json_exports_cli_trace
             json_exports_serve_metrics)
  file(READ ${file}.json text)
  expect_json_object(${file}.json "${text}")
endforeach()

# Every kind of line the serve loop writes must be in the stream.
foreach(kind "\"op\":\"health\"" "\"op\":\"reload\"" "\"op\":\"shutdown\""
             "\"code\":\"ParseError\"" "\"op\":\"suggest\"")
  string(FIND "${answers}" "${kind}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "json_exports_valid: no ${kind} line on stdout")
  endif()
endforeach()

# Walk the lines with string(FIND): a CMake list would split them at `;`.
set(lines 0)
while(NOT answers STREQUAL "")
  string(FIND "${answers}" "\n" end)
  if(end EQUAL -1)
    message(FATAL_ERROR "json_exports_valid: stdout ends without a newline")
  endif()
  string(SUBSTRING "${answers}" 0 ${end} line)
  expect_json_object("stdout line ${lines}" "${line}")
  math(EXPR end "${end} + 1")
  string(SUBSTRING "${answers}" ${end} -1 answers)
  math(EXPR lines "${lines} + 1")
endwhile()

set(prefix "culinary_serve: slo ")
string(FIND "${server_log}" "${prefix}" begin)
string(FIND "${server_log}" "\nculinary_serve: done" end)
if(begin EQUAL -1 OR end EQUAL -1)
  message(FATAL_ERROR "json_exports_valid: no SLO summary\n${server_log}")
endif()
string(LENGTH "${prefix}" length)
math(EXPR begin "${begin} + ${length}")
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${server_log}" ${begin} ${length} slo)
expect_json_object("the SLO summary" "${slo}")

message(STATUS "json_exports_valid: 3 files, ${lines} lines and the SLO "
               "summary parse")
