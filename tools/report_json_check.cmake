# Run one em3d/tiny ttsim case with the JSON output flag KIND names,
# parse the file it writes with string(JSON), and pass only if the
# members listed below equal what ttsim printed (and that is not 0).
#
#   cmake -DTTSIM=path/to/ttsim -DKIND=bench|campaign|analyze|critical
#         -DOUT=report.json -P report_json_check.cmake

set(run --app=em3d --dataset=tiny --nodes=8)
if(KIND STREQUAL "bench")
    list(APPEND run --system=stache --bench-json=${OUT})
    set(line "net messages   : ([0-9]+) \\(([0-9]+) words\\)")
    set(members "cases 0 net_messages" "cases 0 net_words")
elseif(KIND STREQUAL "campaign")
    list(APPEND run --scale=4 --systems=stache --campaign=2
         --faults=drop=0.02,dup=0.02,reorder=0.05,seed=7
         --campaign-json=${OUT})
    set(line "campaign: ([0-9]+) runs: ok=([0-9]+)")
    set(members "totals runs" "totals ok")
elseif(KIND STREQUAL "analyze")
    list(APPEND run --system=stache --analyze=${OUT})
    set(line "dominant sharing pattern: ([a-z-]+)")
    set(members "summary dominant")
elseif(KIND STREQUAL "critical")
    list(APPEND run --system=stache --trace-critical=${OUT})
    set(line "transactions: ([0-9]+) opened, ([0-9]+) completed")
    set(members "opened" "completed")
else()
    message(FATAL_ERROR "unknown KIND '${KIND}'")
endif()

file(REMOVE ${OUT})
execute_process(COMMAND ${TTSIM} ${run}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "ttsim exited '${rc}':\n${out}")
endif()
if(NOT out MATCHES "${line}")
    message(FATAL_ERROR "no line matching '${line}' in:\n${out}")
endif()
# Patterns print as "producer-consumer" but are "producer_consumer"
# in JSON.
string(REPLACE "-" "_" printed "${CMAKE_MATCH_1};${CMAKE_MATCH_2}")

# string(JSON) parses the whole document, so malformed JSON fails too.
file(READ ${OUT} report)
foreach(member IN LISTS members)
    list(POP_FRONT printed want)
    separate_arguments(path UNIX_COMMAND "${member}")
    string(JSON got GET "${report}" ${path})
    if(want STREQUAL "0" OR NOT got STREQUAL want)
        message(FATAL_ERROR
            "${member} is '${got}' in ${OUT}; ttsim printed '${want}'")
    endif()
    message("${member} = ${got}, as printed")
endforeach()
