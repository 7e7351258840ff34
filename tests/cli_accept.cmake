# Every command accepts and rejects the same designs: elaboration is
# the one place that decides which declarations are valid. On each
# invalid design below, lint, analyze, resources, cover, trace, profile
# and debug --stimulus must all exit with the same status and print the
# same first error line; on the valid design they must all succeed.

set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_accept_work)
file(MAKE_DIRECTORY ${work})

set(body "always @(posedge clk) q <= q + 1;\nendmodule\n")
set(header "module m(input wire clk, output reg [3:0] q);\n")
file(WRITE ${work}/lsb.v "${header}reg [-5:3] w;\n${body}")
file(WRITE ${work}/mem_base.v "${header}reg [7:0] mem [1:4];\n${body}")
file(WRITE ${work}/mem_wire.v "${header}wire [7:0] mem [0:3];\n${body}")
file(WRITE ${work}/valid.v "${header}reg [7:0] mem [0:3];\n${body}")
file(WRITE ${work}/stim.txt "clk=0\nclk=1\nclk=0\nclk=1\n")
file(WRITE ${work}/quit.txt "quit\n")

set(commands "lint" "analyze" "resources" "cover --cycles 8"
    "trace --cycles 8" "profile --cycles 8"
    "debug --stimulus ${work}/stim.txt --script ${work}/quit.txt")

foreach(spec "lsb;1" "mem_base;1" "mem_wire;1" "valid;0")
    list(GET spec 0 design)
    list(GET spec 1 want_rc)
    set(first_error "")
    foreach(command ${commands})
        separate_arguments(argv UNIX_COMMAND "${command}")
        execute_process(COMMAND ${HWDBG} ${argv} ${work}/${design}.v
                        RESULT_VARIABLE rc OUTPUT_QUIET
                        ERROR_VARIABLE err)
        if(NOT rc EQUAL want_rc)
            message(FATAL_ERROR
                    "${command} on ${design}.v exited ${rc}, expected "
                    "${want_rc}:\n${err}")
        endif()
        # The first `hwdbg:` line is the error; warnings and summaries
        # (lint: N diagnostics) are per-command and not compared.
        set(error "")
        if(err MATCHES "hwdbg: [^\n]*")
            set(error "${CMAKE_MATCH_0}")
        endif()
        if(command STREQUAL "lint")
            set(first_error "${error}")
            if(want_rc AND error STREQUAL "")
                message(FATAL_ERROR
                        "lint on ${design}.v printed no error:\n${err}")
            endif()
        elseif(NOT error STREQUAL first_error)
            message(FATAL_ERROR
                    "${command} on ${design}.v disagrees with lint:\n"
                    "  lint: '${first_error}'\n"
                    "  ${command}: '${error}'")
        endif()
    endforeach()
endforeach()

message(STATUS "cli_accept checks passed")
