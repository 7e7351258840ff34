# End-to-end CLI smoke test: emit a testbed design, then run the
# analysis commands over the emitted file.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_d4.v)
execute_process(COMMAND ${HWDBG} testbed emit D4
                OUTPUT_FILE ${work} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "testbed emit failed")
endif()
foreach(cmd "fsm" "resources" "timing")
    execute_process(COMMAND ${HWDBG} ${cmd} ${work}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "hwdbg ${cmd} failed")
    endif()
endforeach()
execute_process(COMMAND ${HWDBG} losscheck ${work}
                --source s_data --valid s_valid --sink m_data
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg losscheck failed")
endif()
execute_process(COMMAND ${HWDBG} deps ${work} --var m_len
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg deps failed")
endif()

# Lint: the buggy D4 drops frames silently and leaves dead logic
# behind, which the unused-signal rule reports (warnings only, so the
# exit status stays 0); the fixed form must be completely clean.
execute_process(COMMAND ${HWDBG} lint ${work}
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_out
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg lint failed on buggy D4 (rc=${rc})")
endif()
if(NOT lint_out MATCHES "unused-signal")
    message(FATAL_ERROR "lint missed the dead logic in buggy D4")
endif()
execute_process(COMMAND ${HWDBG} lint ${work} --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_json
                ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT lint_json MATCHES "\"rule\": \"unused-signal\"")
    message(FATAL_ERROR "lint --format json output is wrong")
endif()
execute_process(COMMAND ${HWDBG} lint ${work} --rule sticky-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_one
                ERROR_QUIET)
if(NOT rc EQUAL 0 OR lint_one MATCHES "unused-signal")
    message(FATAL_ERROR "lint --rule selection is wrong")
endif()

set(fixed ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_d4_fixed.v)
execute_process(COMMAND ${HWDBG} testbed emit D4 --fixed
                OUTPUT_FILE ${fixed} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "testbed emit --fixed failed")
endif()
execute_process(COMMAND ${HWDBG} lint ${fixed}
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_fixed
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg lint failed on fixed D4 (rc=${rc})")
endif()
if(NOT lint_fixed STREQUAL "")
    message(FATAL_ERROR
            "lint reported diagnostics on fixed D4: ${lint_fixed}")
endif()

# lint takes --bug ID [--fixed] like the other design commands.
execute_process(COMMAND ${HWDBG} lint --bug D4
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_bug ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT lint_bug MATCHES "unused-signal")
    message(FATAL_ERROR "lint --bug D4 missed the dead logic: ${lint_bug}")
endif()
execute_process(COMMAND ${HWDBG} lint --bug D4 --fixed
                RESULT_VARIABLE rc OUTPUT_VARIABLE lint_bug_fixed
                ERROR_QUIET)
if(NOT rc EQUAL 0 OR lint_bug_fixed MATCHES "unused-signal")
    message(FATAL_ERROR
            "lint --bug D4 --fixed is not clean: ${lint_bug_fixed}")
endif()
