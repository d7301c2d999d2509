# Expected exit code: runs one binary once per case and fails unless every
# run exits exactly EXIT, so a usage error (2) cannot pass as a runtime
# failure (1) or a crash, nor the other way round. With EXIT 2 the run must
# also print the usage on stderr and name the argument it refused.
#
#   cmake -DBINARY=<executable> -DEXIT=<code> [-DARGS=<args>]
#         [-DCASES=<args>] [-DREPEAT=<arg>] [-DUNSIGNED=<flags>]
#         [-DDOUBLES=<flags>] -P expect_exit.cmake
#
# ARGS, a CMake list, starts every command line. Each element of CASES adds
# one argument and one run. REPEAT runs once with its argument given twice.
# Each flag named in UNSIGNED runs with =abc, =7x, =-1 and
# =18446744073709551616; each in DOUBLES with =abc, =7x, =-1, =nan and
# =1e999. With no case at all, the binary runs once with ARGS alone. stdin
# is empty, so a server that wrongly starts reads EOF and exits.

foreach(var BINARY EXIT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit: -D${var}= is required")
  endif()
endforeach()

set(failures "")

# Runs BINARY ARGS <extra arguments>; `named` is the refused argument.
function(run_case named)
  execute_process(
    COMMAND ${BINARY} ${ARGS} ${ARGN}
    INPUT_FILE /dev/null
    OUTPUT_QUIET
    ERROR_VARIABLE log
    RESULT_VARIABLE code
    TIMEOUT 120)
  string(JOIN " " command_line ${ARGS} ${ARGN})
  set(why "")
  if(NOT code STREQUAL EXIT)
    set(why "exited ${code}, expected ${EXIT}")
  elseif(EXIT EQUAL 2)
    string(FIND "${log}" "usage: " usage_at)
    string(FIND "${log}" "${named}" named_at)
    if(usage_at EQUAL -1)
      set(why "printed no usage")
    elseif(named_at EQUAL -1)
      set(why "did not name ${named}")
    endif()
  endif()
  if(why)
    set(failures "${failures}\n  ${command_line}: ${why}\n${log}"
      PARENT_SCOPE)
  else()
    message(STATUS "expect_exit: ${command_line} -> ${code}")
  endif()
endfunction()

set(cases ${CASES})
foreach(flag IN LISTS UNSIGNED)
  foreach(value abc 7x -1 18446744073709551616)
    list(APPEND cases "--${flag}=${value}")
  endforeach()
endforeach()
foreach(flag IN LISTS DOUBLES)
  foreach(value abc 7x -1 nan 1e999)
    list(APPEND cases "--${flag}=${value}")
  endforeach()
endforeach()
foreach(arg IN LISTS cases)
  run_case("${arg}" "${arg}")
endforeach()
if(REPEAT)
  run_case("${REPEAT}" "${REPEAT}" "${REPEAT}")
endif()
if(NOT cases AND NOT REPEAT)
  run_case("")
endif()

if(failures)
  message(FATAL_ERROR "expect_exit: ${BINARY}${failures}")
endif()
