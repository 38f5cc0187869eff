# ctest driver: values from outside fail loudly. Every malformed flag of a
# bench binary, of the example CLI and of the bench_compare and replay
# tools must exit with code 2 (the usage-error code unknown flags already
# get), never run on a silent default; so must the example CLI given a key
# file with a malformed key, and a replay dump with a malformed field,
# naming the field. Run as
#   cmake -DEXP=<exp_* binary> -DCLI=<example_setint_cli>
#         -DBENCH_COMPARE=<bench_compare> -DREPLAY=<replay> -DSCRATCH=<dir>
#         -P this_file
foreach(var EXP CLI BENCH_COMPARE REPLAY SCRATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${SCRATCH}")
file(WRITE "${SCRATCH}/a.txt" "1\n2\n3\n")
file(WRITE "${SCRATCH}/b.txt" "2\n3\n4\n")

function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit code 2, got '${rc}': ${ARGN}")
  endif()
endfunction()

foreach(flag --seed=abc --seed=12x --seed= --json= --threads= --threads=two
             --gate-overhead=fast --gate-overhead= --bogus)
  expect_usage_error("${EXP}" --smoke "${flag}")
endforeach()

foreach(flag --r=abc --r= --universe=1e6 --universe= --seed=abc --seed=-1)
  expect_usage_error("${CLI}" "${SCRATCH}/a.txt" "${SCRATCH}/b.txt" "${flag}")
endforeach()

# A key file with a token that does not parse whole is refused, not read
# up to the bad token.
file(WRITE "${SCRATCH}/bad_keys.txt" "1 2 3x 4 5\n")
expect_usage_error("${CLI}" "${SCRATCH}/bad_keys.txt" "${SCRATCH}/b.txt")

# bench_compare tolerances: two comparable records, so only the flag can
# fail.
set(record "${SCRATCH}/record.json")
file(WRITE "${record}"
     "{\"experiment\": \"flags\", \"seed\": 1, \"smoke\": true, \"sections\": []}\n")
foreach(flag --tol=abc --tol=5% --tol= --perf-tol= --perf-tol=1x)
  expect_usage_error("${BENCH_COMPARE}" "${record}" "${record}" "${flag}")
endforeach()

expect_usage_error("${REPLAY}" "--record=${SCRATCH}/incident"
                   --scenario=integrity --seed=12x)

# A dump whose seed field does not parse whole is refused, by name.
execute_process(COMMAND "${REPLAY}" "--record=${SCRATCH}/incident"
                        --scenario=integrity --seed=5
                OUTPUT_VARIABLE dump OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay --record failed (rc=${rc})")
endif()
file(READ "${dump}" contents)
string(REPLACE "\"seed\":\"5\"" "\"seed\":\"5x\"" tampered "${contents}")
if(tampered STREQUAL contents)
  message(FATAL_ERROR "dump ${dump} has no seed field to tamper with")
endif()
file(WRITE "${SCRATCH}/tampered.jsonl" "${tampered}")
execute_process(COMMAND "${REPLAY}" "${SCRATCH}/tampered.jsonl"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "seed" named)
if(NOT rc EQUAL 2 OR named EQUAL -1)
  message(FATAL_ERROR "malformed dump seed: rc=${rc}, stderr '${err}'")
endif()

# So is a dump whose burst field does not hold six probabilities.
string(REGEX REPLACE "\"fault\\.burst\":\"[^\"]*\"" "\"fault.burst\":\"0.1,0.2\""
       tampered "${contents}")
if(tampered STREQUAL contents)
  message(FATAL_ERROR "dump ${dump} has no fault.burst field to tamper with")
endif()
file(WRITE "${SCRATCH}/tampered_burst.jsonl" "${tampered}")
execute_process(COMMAND "${REPLAY}" "${SCRATCH}/tampered_burst.jsonl"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "fault.burst" named)
if(NOT rc EQUAL 2 OR named EQUAL -1)
  message(FATAL_ERROR "malformed dump fault.burst: rc=${rc}, stderr '${err}'")
endif()

# A dump recorded when bursts were a chaos-plan knob (chaos.burst) is
# unusable, not diverged: the burst it names is no longer rebuilt.
string(REPLACE "\"seed\":\"5\"" "\"chaos.burst\":\"0.1,0.05,0,0.9,0,0\",\"seed\":\"5\""
       tampered "${contents}")
if(tampered STREQUAL contents)
  message(FATAL_ERROR "dump ${dump} has no seed field to add chaos.burst by")
endif()
file(WRITE "${SCRATCH}/chaos_burst.jsonl" "${tampered}")
execute_process(COMMAND "${REPLAY}" "${SCRATCH}/chaos_burst.jsonl"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "chaos.burst" named)
if(NOT rc EQUAL 2 OR named EQUAL -1)
  message(FATAL_ERROR "pre-fault-plan chaos.burst dump: rc=${rc}, stderr '${err}'")
endif()

# The well-formed spellings still run.
execute_process(COMMAND "${CLI}" "${SCRATCH}/a.txt" "${SCRATCH}/b.txt"
                        --r=2 --universe=16 --seed=7
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed CLI flags failed (rc=${rc})")
endif()
execute_process(COMMAND "${BENCH_COMPARE}" "${record}" "${record}"
                        --tol=0.5 --perf-tol=5
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed bench_compare flags failed (rc=${rc})")
endif()
