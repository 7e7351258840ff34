# Every command accepts and rejects the same designs: the parser and
# elaboration are the one place that decides which designs are valid.
# On each invalid design below, lint, analyze, resources, cover, trace,
# profile and debug --stimulus must all exit with the same status and
# print the same first error line; on the valid design they must all
# succeed. The hostile designs (size caps, nesting limits, part-select
# bounds) must end in that error promptly, never in a signal or an
# unbounded run.

set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_accept_work)
file(MAKE_DIRECTORY ${work})

set(body "always @(posedge clk) q <= q + 1;\nendmodule\n")
set(header "module m(input wire clk, output reg [3:0] q);\n")
file(WRITE ${work}/lsb.v "${header}reg [-5:3] w;\n${body}")
file(WRITE ${work}/mem_base.v "${header}reg [7:0] mem [1:4];\n${body}")
file(WRITE ${work}/mem_wire.v "${header}wire [7:0] mem [0:3];\n${body}")
file(WRITE ${work}/valid.v "${header}reg [7:0] mem [0:3];\n${body}")
set(wire "wire [7:0] z;\nassign z = ")
file(WRITE ${work}/rep_div0.v "${header}${wire}{(8/0){1'b1}};\n${body}")
file(WRITE ${work}/rep_neg.v "${header}${wire}{(0-1){1'b1}};\n${body}")
file(WRITE ${work}/wide.v "${header}reg [4294967296:0] big;\n${body}")
file(WRITE ${work}/deep.v "${header}reg [7:0] m [0:4294967296];\n${body}")
file(WRITE ${work}/rep_64.v
     "${header}${wire}{64'h100000001{1'b1}};\n${body}")
file(WRITE ${work}/rep_1e9.v "${header}${wire}{1000000000{1'b1}};\n${body}")
string(REPEAT "(" 20000 open)
string(REPEAT ")" 20000 close)
file(WRITE ${work}/parens.v "${header}${wire}${open}q${close};\n${body}")
string(REPEAT "begin " 100000 open)
string(REPEAT " end" 100000 close)
file(WRITE ${work}/begins.v
     "${header}reg r;\nalways @(posedge clk) ${open}r <= 1;${close}\n"
     "${body}")
file(WRITE ${work}/partsel.v "${header}${wire}q[-1:0];\n${body}")
# A chain of 10,000 distinct modules, each instantiating the next, under
# the top module m (the last one in the file).
set(chain "")
foreach(i RANGE 9999 1 -1)
    math(EXPR next "${i} + 1")
    if(i EQUAL 9999)
        string(APPEND chain "module c${i}();\nendmodule\n")
    else()
        string(APPEND chain "module c${i}();\nc${next} u();\nendmodule\n")
    endif()
endforeach()
file(WRITE ${work}/instances.v
     "${chain}${header}c1 u();\n${body}")
file(WRITE ${work}/stim.txt "clk=0\nclk=1\nclk=0\nclk=1\n")
file(WRITE ${work}/quit.txt "quit\n")

set(commands "lint" "analyze" "resources" "cover --cycles 8"
    "trace --cycles 8" "profile --cycles 8"
    "debug --stimulus ${work}/stim.txt --script ${work}/quit.txt")

foreach(spec "lsb;1" "mem_base;1" "mem_wire;1" "valid;0" "rep_div0;1"
        "rep_neg;1" "wide;1" "deep;1" "rep_64;1" "rep_1e9;1" "parens;1"
        "begins;1" "partsel;1" "instances;1")
    list(GET spec 0 design)
    list(GET spec 1 want_rc)
    set(first_error "")
    foreach(command ${commands})
        separate_arguments(argv UNIX_COMMAND "${command}")
        # A signal or the timeout leaves a non-numeric rc, never want_rc.
        execute_process(COMMAND ${HWDBG} ${argv} ${work}/${design}.v
                        RESULT_VARIABLE rc OUTPUT_QUIET
                        ERROR_VARIABLE err TIMEOUT 5)
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
