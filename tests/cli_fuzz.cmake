# Golden tests for the `hwdbg fuzz` CLI: exit codes, the JSON report
# schema, and byte-determinism of --replay across runs and job counts.

# A short clean campaign exits 0 and says so in the report.
execute_process(COMMAND ${HWDBG} fuzz --seeds 20 --jobs 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE text_out
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg fuzz --seeds 20 failed (rc=${rc})")
endif()
if(NOT text_out MATCHES "result: PASS \\(20 seed\\(s\\) clean\\)")
    message(FATAL_ERROR "clean campaign report is wrong: ${text_out}")
endif()

# The JSON report carries the campaign configuration and verdict.
execute_process(COMMAND ${HWDBG} fuzz --seeds 20 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE json_out
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg fuzz --format json failed (rc=${rc})")
endif()
# ... and passes its own obscheck schema.
set(fuzz_work ${CMAKE_CURRENT_BINARY_DIR}/cli_fuzz_work)
file(MAKE_DIRECTORY ${fuzz_work})
file(WRITE ${fuzz_work}/fuzz.json "${json_out}")
execute_process(COMMAND ${HWDBG} obscheck ${fuzz_work}/fuzz.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE check_out)
if(NOT rc EQUAL 0 OR NOT check_out MATCHES "fuzz.json: ok \\(fuzz report\\)")
    message(FATAL_ERROR "obscheck on the fuzz report: ${check_out}")
endif()
foreach(key
        "\"mode\": \"fuzz\""
        "\"seeds\": 20"
        "\"cycles\": 24"
        "\"oracles\": "
        "\"failures\": "
        "\"ok\": true")
    if(NOT json_out MATCHES "${key}")
        message(FATAL_ERROR
                "fuzz JSON report is missing ${key}: ${json_out}")
    endif()
endforeach()

# --oracle restricts the oracle list in the report.
execute_process(COMMAND ${HWDBG} fuzz --seeds 5 --oracle roundtrip
                --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE one_oracle
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg fuzz --oracle roundtrip failed")
endif()
if(NOT one_oracle MATCHES "\"oracles\": \\[\"roundtrip\"\\]")
    message(FATAL_ERROR "--oracle selection not reflected: ${one_oracle}")
endif()
if(one_oracle MATCHES "differential")
    message(FATAL_ERROR "--oracle roundtrip still ran differential")
endif()

# An unknown oracle name is a usage error, not a crash.
execute_process(COMMAND ${HWDBG} fuzz --oracle bogus
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "hwdbg fuzz --oracle bogus should fail")
endif()

# --replay of one seed is byte-deterministic: the report is identical
# run-to-run (timing goes to stderr, never into the report).
execute_process(COMMAND ${HWDBG} fuzz --replay 7 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE replay_a
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg fuzz --replay 7 failed (rc=${rc})")
endif()
execute_process(COMMAND ${HWDBG} fuzz --replay 7 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE replay_b
                ERROR_QUIET)
if(NOT replay_a STREQUAL replay_b)
    message(FATAL_ERROR "fuzz --replay 7 is not deterministic")
endif()

# The full report of a fixed range must also be independent of the
# worker count (results are sorted by seed before rendering).
execute_process(COMMAND ${HWDBG} fuzz --seeds 12 --jobs 1 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE jobs1 ERROR_QUIET)
execute_process(COMMAND ${HWDBG} fuzz --seeds 12 --jobs 4 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE jobs4 ERROR_QUIET)
if(NOT jobs1 STREQUAL jobs4)
    message(FATAL_ERROR "fuzz report depends on --jobs")
endif()
