# Run a command and pass only if it exits with status EXPECT exactly.
# ctest's own pass rule tells zero from non-zero, so a process killed
# by a signal would pass a WILL_FAIL test; it fails this one. With
# -DGOLDEN=FILE its standard output must also equal FILE byte for
# byte; on a difference the output is written to OUT for a diff.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- COMMAND [ARGS...]
#   cmake -DEXPECT=0 -DGOLDEN=FILE -DOUT=FILE -P expect_exit.cmake -- ...

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

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit status ${EXPECT}, got '${rc}'")
endif()
if(DEFINED GOLDEN)
    file(READ "${GOLDEN}" want)
    if(NOT out STREQUAL want)
        file(WRITE "${OUT}" "${out}")
        message(FATAL_ERROR "output differs from ${GOLDEN}; see ${OUT}")
    endif()
endif()
