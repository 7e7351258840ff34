# Golden tests for the observability CLI surface: `hwdbg profile`,
# the global --trace/--metrics/--quiet options, `hwdbg obscheck`, and
# the cross---jobs byte-determinism of metrics snapshots.

set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_work)
file(MAKE_DIRECTORY ${work})

# ---- hwdbg profile on a bugbase design ------------------------------

execute_process(COMMAND ${HWDBG} testbed emit D1
                RESULT_VARIABLE rc OUTPUT_VARIABLE design
                ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "testbed emit D1 failed (rc=${rc})")
endif()
file(WRITE ${work}/d1.v "${design}")

# --rank evals is the deterministic mode: eval counts are a pure
# function of the stimulus, so two runs must agree on every ranked row.
execute_process(COMMAND ${HWDBG} profile ${work}/d1.v
                --cycles 300 --rank evals
                RESULT_VARIABLE rc OUTPUT_VARIABLE prof_a ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg profile failed (rc=${rc}): ${prof_a}")
endif()
foreach(pattern
        "profile: top=rsd cycles=300/300 seed=1"
        "hot constructs \\(ranked by evals\\):"
        "rank kind"
        "seq"
        "always @\\(posedge clk\\)"
        "d1.v:[0-9]+:[0-9]+"
        "hot signals \\(by toggle count\\):"
        "settle: [0-9]+ calls")
    if(NOT prof_a MATCHES "${pattern}")
        message(FATAL_ERROR
                "profile output is missing '${pattern}': ${prof_a}")
    endif()
endforeach()

execute_process(COMMAND ${HWDBG} profile ${work}/d1.v
                --cycles 300 --rank evals
                RESULT_VARIABLE rc OUTPUT_VARIABLE prof_b ERROR_QUIET)
# Wall time varies run to run; everything else must not. Strip the
# time columns ("0.736  63.2%") and the wall= field, then collapse
# whitespace runs — the table's column padding depends on the widths
# of the (stripped) time values, so raw spacing is nondeterministic.
string(REGEX REPLACE "wall=[0-9.]+ ms" "wall=X" prof_a_n "${prof_a}")
string(REGEX REPLACE "wall=[0-9.]+ ms" "wall=X" prof_b_n "${prof_b}")
string(REGEX REPLACE "[0-9]+\\.[0-9]+ +[0-9]+\\.[0-9]+%" "T P"
       prof_a_n "${prof_a_n}")
string(REGEX REPLACE "[0-9]+\\.[0-9]+ +[0-9]+\\.[0-9]+%" "T P"
       prof_b_n "${prof_b_n}")
string(REGEX REPLACE "  +" " " prof_a_n "${prof_a_n}")
string(REGEX REPLACE "  +" " " prof_b_n "${prof_b_n}")
if(NOT prof_a_n STREQUAL prof_b_n)
    message(FATAL_ERROR
            "profile --rank evals is not deterministic:\n--- a\n"
            "${prof_a_n}\n--- b\n${prof_b_n}")
endif()

# JSON mode parses and carries the same report.
execute_process(COMMAND ${HWDBG} profile ${work}/d1.v
                --cycles 100 --format json
                RESULT_VARIABLE rc OUTPUT_VARIABLE prof_json ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hwdbg profile --format json failed")
endif()
foreach(key "\"top\": \"rsd\"" "\"constructs\": " "\"signals\": "
        "\"settle\": ")
    if(NOT prof_json MATCHES "${key}")
        message(FATAL_ERROR "profile JSON missing ${key}: ${prof_json}")
    endif()
endforeach()

# ---- --trace / --metrics / obscheck ---------------------------------

execute_process(COMMAND ${HWDBG} lint ${work}/d1.v
                --trace ${work}/t.json --metrics ${work}/m.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT EXISTS ${work}/t.json OR NOT EXISTS ${work}/m.json)
    message(FATAL_ERROR "--trace/--metrics produced no files")
endif()
execute_process(COMMAND ${HWDBG} obscheck ${work}/t.json ${work}/m.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE check_out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "obscheck rejected our own output: ${check_out}")
endif()
if(NOT check_out MATCHES "t.json: ok \\(trace\\)")
    message(FATAL_ERROR "obscheck did not classify the trace: ${check_out}")
endif()
if(NOT check_out MATCHES "m.json: ok \\(metrics\\)")
    message(FATAL_ERROR "obscheck did not classify metrics: ${check_out}")
endif()

# The trace of a lint run names the pipeline phases.
file(READ ${work}/t.json trace_text)
foreach(span "parse" "elaborate" "lint")
    if(NOT trace_text MATCHES "\"${span}\"")
        message(FATAL_ERROR "trace is missing the ${span} span")
    endif()
endforeach()

# Lint and profile JSON each pass their own schema (before, both fell
# through to the metrics schema and read INVALID).
execute_process(COMMAND ${HWDBG} lint ${work}/d1.v --format json
                OUTPUT_FILE ${work}/lint.json ERROR_QUIET)
execute_process(COMMAND ${HWDBG} lint --bug D3 --format json
                OUTPUT_FILE ${work}/lint_d3.json ERROR_QUIET)
execute_process(COMMAND ${HWDBG} profile ${work}/d1.v --format json
                OUTPUT_FILE ${work}/profile.json ERROR_QUIET)
execute_process(COMMAND ${HWDBG} obscheck ${work}/lint.json
                ${work}/lint_d3.json ${work}/profile.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE check_out)
foreach(pattern "lint.json: ok \\(lint report\\)"
                "lint_d3.json: ok \\(lint report\\)"
                "profile.json: ok \\(profile\\)")
    if(NOT rc EQUAL 0 OR NOT check_out MATCHES "${pattern}")
        message(FATAL_ERROR "obscheck on lint/profile JSON: ${check_out}")
    endif()
endforeach()

# obscheck rejects corrupted files and exits 1.
file(WRITE ${work}/broken.json "{\"traceEvents\": [{\"ph\": \"E\", "
     "\"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
execute_process(COMMAND ${HWDBG} obscheck ${work}/broken.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE broken_out)
if(rc EQUAL 0)
    message(FATAL_ERROR "obscheck accepted an unbalanced trace")
endif()
if(NOT broken_out MATCHES "INVALID")
    message(FATAL_ERROR "obscheck verdict missing: ${broken_out}")
endif()

# ---- metrics byte-determinism across --jobs -------------------------

execute_process(COMMAND ${HWDBG} fuzz --seeds 16 --jobs 1
                --metrics ${work}/m_jobs1.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fuzz --jobs 1 --metrics failed")
endif()
execute_process(COMMAND ${HWDBG} fuzz --seeds 16 --jobs 4
                --metrics ${work}/m_jobs4.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fuzz --jobs 4 --metrics failed")
endif()
file(READ ${work}/m_jobs1.json m1)
file(READ ${work}/m_jobs4.json m4)
if(NOT m1 STREQUAL m4)
    message(FATAL_ERROR
            "metrics snapshot depends on --jobs:\n--- jobs=1\n${m1}"
            "\n--- jobs=4\n${m4}")
endif()

# A traced multi-job fuzz run carries one named track per worker.
execute_process(COMMAND ${HWDBG} fuzz --seeds 8 --jobs 3
                --trace ${work}/fuzz_trace.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
execute_process(COMMAND ${HWDBG} obscheck ${work}/fuzz_trace.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fuzz trace failed obscheck")
endif()
file(READ ${work}/fuzz_trace.json fuzz_trace)
foreach(worker 0 1 2)
    if(NOT fuzz_trace MATCHES "fuzz-worker-${worker}")
        message(FATAL_ERROR
                "fuzz trace missing the fuzz-worker-${worker} track")
    endif()
endforeach()

# ---- --quiet --------------------------------------------------------

# A design with no clk makes the profiler warn; --quiet must drop it.
file(WRITE ${work}/noclk.v
     "module m(input a, output w);\n    assign w = ~a;\nendmodule\n")
execute_process(COMMAND ${HWDBG} profile ${work}/noclk.v --cycles 5
                RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE loud_err)
if(NOT loud_err MATCHES "warn: profile: design has no 'clk' input")
    message(FATAL_ERROR "expected a warning without --quiet: ${loud_err}")
endif()
execute_process(COMMAND ${HWDBG} profile ${work}/noclk.v --cycles 5
                --quiet
                RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE quiet_err)
if(quiet_err MATCHES "warn:")
    message(FATAL_ERROR "--quiet did not silence warn(): ${quiet_err}")
endif()
