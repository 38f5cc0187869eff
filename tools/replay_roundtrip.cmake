# ctest driver for the incident-replay contract (docs/ROBUSTNESS.md):
# record a canned incident for each scenario, then replay its dump and
# require a bit-for-bit transcript-digest match (exit 0). Run with
#   cmake -DREPLAY=<bin> -DSCRATCH=<dir> -P replay_roundtrip.cmake
if(NOT REPLAY OR NOT SCRATCH)
  message(FATAL_ERROR "usage: cmake -DREPLAY=<bin> -DSCRATCH=<dir> -P replay_roundtrip.cmake")
endif()
file(MAKE_DIRECTORY ${SCRATCH})

foreach(scenario integrity burst crash partition degrade)
  execute_process(
    COMMAND ${REPLAY} --record=${SCRATCH}/${scenario} --scenario=${scenario}
            --seed=24145
    OUTPUT_VARIABLE dump_path
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "record failed for scenario ${scenario} (rc=${rc})")
  endif()
  if(NOT EXISTS ${dump_path})
    message(FATAL_ERROR "scenario ${scenario}: dump ${dump_path} missing")
  endif()
  if(scenario STREQUAL "burst")
    # The burst must abandon a frame, not fall back to a forced dump.
    file(READ ${dump_path} dump)
    string(FIND "${dump}" "integrity: " abandoned)
    if(abandoned EQUAL -1)
      message(FATAL_ERROR "scenario burst: no integrity incident in ${dump_path}")
    endif()
  endif()
  execute_process(
    COMMAND ${REPLAY} ${dump_path}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay diverged for scenario ${scenario} (rc=${rc})")
  endif()
endforeach()

# Negative test: a truncated dump (no meta line) must be rejected as
# unusable with exit 2, not reported as a clean match.
file(WRITE ${SCRATCH}/empty.jsonl "")
execute_process(COMMAND ${REPLAY} ${SCRATCH}/empty.jsonl RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "empty dump accepted (rc=${rc}, expected 2)")
endif()
message(STATUS "replay round-trip: all scenarios reproduced bit-for-bit")
