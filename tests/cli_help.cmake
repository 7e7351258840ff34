# CLI help surface: the top-level usage lists every command in the
# dispatch table, `hwdbg help <command>` prints each command's detail,
# and unknown names fail loudly. Keyed to the same table that drives
# dispatch, so a new command cannot ship without help text.

set(all_commands parse lint analyze fsm deps signalcat losscheck
    resources timing testbed fuzz profile cover trace obscheck debug
    serve version help)

# hwdbg with no arguments prints the usage listing and exits 2.
execute_process(COMMAND ${HWDBG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(usage "${out}${err}")
if(rc EQUAL 0)
    message(FATAL_ERROR "bare hwdbg should exit non-zero")
endif()
foreach(cmd ${all_commands})
    if(NOT usage MATCHES "\n  ${cmd} ")
        message(FATAL_ERROR
                "usage() does not list command '${cmd}':\n${usage}")
    endif()
endforeach()
if(NOT usage MATCHES "--trace FILE")
    message(FATAL_ERROR "usage() lost the common options:\n${usage}")
endif()
if(NOT usage MATCHES "vectors of up to 65536 bits" OR
   NOT usage MATCHES "nesting up to 256 levels")
    message(FATAL_ERROR "usage() lost the design limits:\n${usage}")
endif()

# Every command has non-empty `hwdbg help <cmd>` output carrying its
# synopsis line.
foreach(cmd ${all_commands})
    execute_process(COMMAND ${HWDBG} help ${cmd}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "hwdbg help ${cmd} failed (rc=${rc})")
    endif()
    if(NOT out MATCHES "usage: hwdbg ${cmd}")
        message(FATAL_ERROR
                "help ${cmd} is missing its synopsis:\n${out}")
    endif()
endforeach()

# Spot-check that the debug command documents its core options.
execute_process(COMMAND ${HWDBG} help debug
                OUTPUT_VARIABLE out ERROR_QUIET)
foreach(pattern "--bug ID" "--machine" "--script FILE" "--stimulus FILE"
        "--checkpoint-interval")
    if(NOT out MATCHES "${pattern}")
        message(FATAL_ERROR
                "help debug is missing '${pattern}':\n${out}")
    endif()
endforeach()

# Spot-check that serve documents its telemetry surface: the server
# flags, the introspection commands, and the client-side monitor.
execute_process(COMMAND ${HWDBG} help serve
                OUTPUT_VARIABLE out ERROR_QUIET)
foreach(pattern "--slow-us" "--reqlog" "--no-telemetry" "--monitor"
        "--interval" "--iterations" "stats" "health" "slow")
    if(NOT out MATCHES "${pattern}")
        message(FATAL_ERROR
                "help serve is missing '${pattern}':\n${out}")
    endif()
endforeach()

# Unknown names fail, both as a command and as a help topic.
execute_process(COMMAND ${HWDBG} no-such-command
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "unknown command should exit non-zero")
endif()
execute_process(COMMAND ${HWDBG} help no-such-command
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "unknown command")
    message(FATAL_ERROR "help for an unknown command should fail: ${err}")
endif()

message(STATUS "cli_help checks passed")
