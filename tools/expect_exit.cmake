# Run a command and pass only if it exits with status EXPECT exactly.
# ctest's own pass rule tells zero from non-zero, so a process killed
# by a signal would pass a WILL_FAIL test; it fails this one.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- COMMAND [ARGS...]

set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collect)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(collect ON)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT)
    message(FATAL_ERROR
        "usage: cmake -DEXPECT=N -P expect_exit.cmake -- COMMAND ...")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit status ${EXPECT}, got '${rc}'")
endif()
