# Framing pin: serves one fixed input through `culinary_serve --small
# --threads=2`, once on stdin (a pipe) and once through --requests=FILE, and
# fails unless both stdouts have the SHA-256 EXPECTED. The input holds the
# line splitter's edge cases: an empty line and a spaces-only line, a line
# that is one "\r" (answered: only "\n" ends a line), a ping ended by
# "\r\n", a score request with a 100,000-byte ingredient name (longer than
# any read buffer; its answer echoes the name, so it is longer than a pipe's
# buffer too), a line with a NUL byte inside, a garbage line, a mixed
# suggest+score batch line and a last ping with no trailing newline. A
# second input puts lines after {"op":"shutdown"}; they must get no answer,
# from stdin or from the file.
#
#   cmake -DSERVE=<culinary_serve> -DEXPECTED=<sha256 hex> -P framing_pin.cmake
#
# The inputs go through printf(1), the one portable way to write a NUL byte;
# the outputs are hashed as files for the same reason.

foreach(var SERVE EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "framing_pin: -D${var}= is required")
  endif()
endforeach()

string(REPEAT "a" 100000 long_name)
execute_process(
  COMMAND printf
    "\\n   \\n\\r\\n{\"id\":\"crlf\",\"op\":\"ping\"}\\r\\n{\"id\":\"long\",\"op\":\"score\",\"ingredients\":[\"tomato\",\"%s\"]}\\n{\"id\":\"n\\000ul\",\"op\":\"ping\"}\\nnot json at all\\n{\"id\":\"b\",\"op\":\"batch\",\"requests\":[{\"id\":\"s\",\"op\":\"suggest\",\"ids\":[1,2],\"k\":3},{\"id\":\"t\",\"op\":\"score\",\"ingredients\":[\"tomato\",\"garlic\"]}]}\\n\\n{\"id\":\"last\",\"op\":\"ping\"}"
    "${long_name}"
  OUTPUT_FILE framing_pin_input.jsonl
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "framing_pin: printf exited ${code}")
endif()
execute_process(
  COMMAND printf
    "{\"id\":\"before\",\"op\":\"ping\"}\\n{\"id\":\"bye\",\"op\":\"shutdown\"}\\n{\"id\":\"after\",\"op\":\"ping\"}\\n{\"id\":\"late\",\"op\":\"shutdown\"}\\n"
  OUTPUT_FILE framing_pin_shutdown.jsonl
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "framing_pin: printf exited ${code}")
endif()

# Serves `input` with `mode` (stdin or requests) into `output`; fails unless
# the server exits 0.
function(serve mode input output)
  if(mode STREQUAL "stdin")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E cat ${input}
      COMMAND ${SERVE} --small --threads=2
      OUTPUT_FILE ${output}
      ERROR_VARIABLE log
      RESULTS_VARIABLE codes)
    list(GET codes 1 code)
  else()
    execute_process(
      COMMAND ${SERVE} --small --threads=2 --requests=${input}
      OUTPUT_FILE ${output}
      ERROR_VARIABLE log
      RESULT_VARIABLE code)
  endif()
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "framing_pin: ${mode} ${input}: server exited ${code}\n${log}")
  endif()
endfunction()

foreach(mode stdin requests)
  serve(${mode} framing_pin_input.jsonl framing_pin_${mode}.out)
  file(SHA256 framing_pin_${mode}.out digest)
  if(NOT digest STREQUAL EXPECTED)
    message(FATAL_ERROR
      "framing_pin: ${mode} stdout SHA-256 is\n  ${digest}\nexpected\n"
      "  ${EXPECTED}")
  endif()

  serve(${mode} framing_pin_shutdown.jsonl framing_pin_shutdown_${mode}.out)
  file(STRINGS framing_pin_shutdown_${mode}.out answers)
  list(LENGTH answers count)
  if(NOT count EQUAL 2 OR answers MATCHES "\"(after|late)\"")
    message(FATAL_ERROR
      "framing_pin: ${mode}: expected answers to the two lines up to the "
      "shutdown only, got:\n${answers}")
  endif()
endforeach()
message(STATUS "framing_pin: ${EXPECTED}")
