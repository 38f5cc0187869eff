# ctest driver for bench_compare: self-compare must pass, and comparing
# against an --inject'ed copy, or against a copy whose cpu block names a
# dispatch tier that is no simd::tier_name value, must fail with exit
# code 1 (the comparator has to be able to go red to be a gate). A copy
# whose E2 table is retitled must pass with the retitle noted, and one
# whose E2 table takes an ID no section had must fail as missing. Run as
#   cmake -DBENCH_COMPARE=... -DRECORD=... -DSCRATCH=... -P this_file
foreach(var BENCH_COMPARE RECORD SCRATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${SCRATCH}")

execute_process(COMMAND "${BENCH_COMPARE}" "${RECORD}" "${RECORD}"
                RESULT_VARIABLE SELF_RC)
if(NOT SELF_RC EQUAL 0)
  message(FATAL_ERROR "self-compare of ${RECORD} failed (rc=${SELF_RC})")
endif()

execute_process(COMMAND "${BENCH_COMPARE}" --inject "${RECORD}"
                        "${SCRATCH}/injected.json"
                RESULT_VARIABLE INJECT_RC)
if(NOT INJECT_RC EQUAL 0)
  message(FATAL_ERROR "--inject failed (rc=${INJECT_RC})")
endif()

execute_process(COMMAND "${BENCH_COMPARE}" "${RECORD}" "${SCRATCH}/injected.json"
                RESULT_VARIABLE REGRESSION_RC)
if(NOT REGRESSION_RC EQUAL 1)
  message(FATAL_ERROR
          "comparator did not flag the injected cost regression "
          "(rc=${REGRESSION_RC}, expected 1)")
endif()

file(READ "${RECORD}" record)
string(REGEX REPLACE "\"dispatch_tier\": \"[a-z0-9]*\""
       "\"dispatch_tier\": \"avx2\"" stale "${record}")
if(stale STREQUAL record)
  message(FATAL_ERROR "${RECORD} has no dispatch_tier to make stale")
endif()
file(WRITE "${SCRATCH}/stale_tier.json" "${stale}")
execute_process(COMMAND "${BENCH_COMPARE}" "${RECORD}" "${SCRATCH}/stale_tier.json"
                RESULT_VARIABLE STALE_RC)
if(NOT STALE_RC EQUAL 1)
  message(FATAL_ERROR
          "comparator did not flag an unknown dispatch tier "
          "(rc=${STALE_RC}, expected 1)")
endif()

# Retitled section: the same ID ("E2"), unique in both records, pairs the
# tables and the retitle is reported.
string(REGEX REPLACE "\"title\": \"E2: [^\"]*\""
       "\"title\": \"E2: a retitled table\"" retitled "${record}")
if(retitled STREQUAL record)
  message(FATAL_ERROR "${RECORD} has no E2 section to retitle")
endif()
file(WRITE "${SCRATCH}/retitled.json" "${retitled}")
execute_process(COMMAND "${BENCH_COMPARE}" "${RECORD}" "${SCRATCH}/retitled.json"
                RESULT_VARIABLE RETITLE_RC OUTPUT_VARIABLE RETITLE_OUT)
if(NOT RETITLE_RC EQUAL 0)
  message(FATAL_ERROR
          "comparator did not pair a retitled section "
          "(rc=${RETITLE_RC}, expected 0):\n${RETITLE_OUT}")
endif()
if(NOT RETITLE_OUT MATCHES "section retitled to \"E2: a retitled table\"")
  message(FATAL_ERROR "comparator did not note the retitle:\n${RETITLE_OUT}")
endif()

# A table whose ID changed is a different table: the old one is missing.
string(REGEX REPLACE "\"title\": \"E2: [^\"]*\""
       "\"title\": \"E99: an unknown table\"" renamed "${record}")
file(WRITE "${SCRATCH}/renamed.json" "${renamed}")
execute_process(COMMAND "${BENCH_COMPARE}" "${RECORD}" "${SCRATCH}/renamed.json"
                RESULT_VARIABLE RENAMED_RC OUTPUT_QUIET)
if(NOT RENAMED_RC EQUAL 1)
  message(FATAL_ERROR
          "comparator did not flag a section whose ID changed "
          "(rc=${RENAMED_RC}, expected 1)")
endif()
