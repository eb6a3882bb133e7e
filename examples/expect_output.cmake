# Runs the command that follows the script name and fails unless it exits 0
# and its standard output matches the regular expression EXPECT:
#   cmake -DEXPECT=<regex> -P expect_output.cmake <command> [args...]
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
  list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE out)
if(NOT status EQUAL 0 OR NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${status}; expected /${EXPECT}/ in:\n${out}")
endif()
