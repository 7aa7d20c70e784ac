# Run one ttsim case with --bench-json and pass only if the report's
# net_messages and net_words equal the "net messages" line ttsim
# prints for the same run.
#
#   cmake -DTTSIM=path/to/ttsim -DOUT=report.json -P bench_json_check.cmake

execute_process(
    COMMAND ${TTSIM} --system=stache --app=em3d --dataset=tiny
            --nodes=8 --bench-json=${OUT}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "ttsim exited '${rc}'")
endif()
if(NOT out MATCHES "net messages   : ([0-9]+) \\(([0-9]+) words\\)")
    message(FATAL_ERROR "no 'net messages' line in:\n${out}")
endif()
set(printed_msgs ${CMAKE_MATCH_1})
set(printed_words ${CMAKE_MATCH_2})

file(READ ${OUT} report)
string(JSON msgs GET "${report}" cases 0 net_messages)
string(JSON words GET "${report}" cases 0 net_words)
if(printed_msgs EQUAL 0 OR NOT msgs EQUAL printed_msgs OR
   NOT words EQUAL printed_words)
    message(FATAL_ERROR
        "bench report has net_messages=${msgs} net_words=${words}; "
        "ttsim printed ${printed_msgs} messages (${printed_words} words)")
endif()
message("net_messages ${msgs} and net_words ${words} match ttsim's output")
