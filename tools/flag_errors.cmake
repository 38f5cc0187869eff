# ctest driver: values from outside fail loudly. Every malformed flag of a
# bench binary and of the example CLI must exit with code 2 (the usage-error
# code unknown flags already get), never run on a silent default. Run as
#   cmake -DEXP=<exp_* binary> -DCLI=<example_setint_cli> -DSCRATCH=<dir> -P this_file
foreach(var EXP CLI SCRATCH)
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

# The well-formed spellings still run.
execute_process(COMMAND "${CLI}" "${SCRATCH}/a.txt" "${SCRATCH}/b.txt"
                        --r=2 --universe=16 --seed=7
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "well-formed CLI flags failed (rc=${rc})")
endif()
