# Runs the command given after `--` and passes only when it exits non-zero
# and prints the strict flag parser's "error:" line (bench/common.hpp):
#
#   cmake -P expect_cli_error.cmake -- <program> [args...]
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "exited 0; the command line should have been rejected\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "(^|\n)error: ")
  message(FATAL_ERROR "exit '${rc}' without the parser's 'error:' line\n"
                      "${out}${err}")
endif()
