# ctest driver for the incident-replay contract (docs/ROBUSTNESS.md):
# record a canned incident for each scenario, then replay its dump and
# require a bit-for-bit transcript-digest match (exit 0). Every scenario
# delivers messages before its incident, so its dump pins a transcript:
# a zero digest (nothing delivered) fails. A replay reads
# only what its own re-run wrote, never files left under TMPDIR by an
# earlier replay. Run with
#   cmake -DREPLAY=<bin> -DSCRATCH=<dir> -P replay_roundtrip.cmake
if(NOT REPLAY OR NOT SCRATCH)
  message(FATAL_ERROR "usage: cmake -DREPLAY=<bin> -DSCRATCH=<dir> -P replay_roundtrip.cmake")
endif()
file(MAKE_DIRECTORY ${SCRATCH})

foreach(scenario integrity burst overlay crash partition degrade overload)
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
  file(READ ${dump_path} dump)
  string(FIND "${dump}" "\"transcript_digest\":\"0\"" zero_digest)
  if(NOT zero_digest EQUAL -1)
    message(FATAL_ERROR "scenario ${scenario}: ${dump_path} pins no transcript (digest 0)")
  endif()
  if(scenario STREQUAL "burst" OR scenario STREQUAL "overlay")
    # The lossy link must abandon a frame, not fall back to a forced dump.
    string(FIND "${dump}" "integrity: " abandoned)
    if(abandoned EQUAL -1)
      message(FATAL_ERROR "scenario ${scenario}: no integrity incident in ${dump_path}")
    endif()
  endif()
  if(scenario STREQUAL "overlay")
    string(FIND "${dump}" "\"fault.overlays\":\"0:1:" recorded)
    if(recorded EQUAL -1)
      message(FATAL_ERROR "scenario overlay: no link {0, 1} overlay in ${dump_path}")
    endif()
  endif()
  execute_process(
    COMMAND ${REPLAY} ${dump_path}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay diverged for scenario ${scenario} (rc=${rc})")
  endif()
endforeach()

# Each scenario picks its chaos or fault seed from --seed so that the
# session delivers messages before its incident at every --seed, not only
# at the one above; a crashed peer is declared lost.
foreach(scenario crash overlay degrade integrity)
  set(plan_seeds "")
  foreach(seed 1 2 3 4 5 6 7 8)
    execute_process(
      COMMAND ${REPLAY} --record=${SCRATCH}/${scenario}_${seed}
              --scenario=${scenario} --seed=${seed}
      OUTPUT_VARIABLE dump_path
      OUTPUT_STRIP_TRAILING_WHITESPACE
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT EXISTS "${dump_path}")
      message(FATAL_ERROR "record failed for ${scenario} at seed ${seed} (rc=${rc})")
    endif()
    file(READ ${dump_path} dump)
    string(FIND "${dump}" "\"transcript_digest\":\"0\"" zero_digest)
    if(NOT zero_digest EQUAL -1)
      message(FATAL_ERROR "${scenario} at seed ${seed}: ${dump_path} pins no transcript")
    endif()
    if(scenario STREQUAL "crash")
      string(FIND "${dump}" "degraded: peer lost" lost)
      if(lost EQUAL -1)
        message(FATAL_ERROR "crash at seed ${seed}: ${dump_path} has no lost peer")
      endif()
    endif()
    string(REGEX MATCH "\"fault\\.seed\":\"[0-9]+\"" plan_seed "${dump}")
    list(APPEND plan_seeds "${plan_seed}")
    execute_process(COMMAND ${REPLAY} ${dump_path} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "replay diverged for ${scenario} at seed ${seed} (rc=${rc})")
    endif()
  endforeach()
  # A fault plan's own draws follow --seed: eight seeds, eight fault seeds.
  list(REMOVE_DUPLICATES plan_seeds)
  list(LENGTH plan_seeds distinct)
  if(NOT scenario STREQUAL "crash" AND NOT distinct EQUAL 8)
    message(FATAL_ERROR "${scenario}: seeds 1-8 gave ${distinct} distinct fault seed(s): ${plan_seeds}")
  endif()
endforeach()

# Negative test: a truncated dump (no meta line) must be rejected as
# unusable with exit 2, not reported as a clean match.
file(WRITE ${SCRATCH}/empty.jsonl "")
execute_process(COMMAND ${REPLAY} ${SCRATCH}/empty.jsonl RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "empty dump accepted (rc=${rc}, expected 2)")
endif()
# Stale files where an earlier replay of the same seed would have dumped
# (TMPDIR/setint_replay_<seed>/replay.<incident>.jsonl) must not count.
# A copy of the integrity dump that claims incident 50, planted there,
# still diverges: the re-run raises fewer incidents than that.
set(stale_tmp ${SCRATCH}/stale_tmp)
file(REMOVE_RECURSE ${stale_tmp})
file(READ ${SCRATCH}/integrity.1.jsonl dump)
string(REPLACE "\"incidents\":1," "\"incidents\":50," claimed "${dump}")
if(claimed STREQUAL dump)
  message(FATAL_ERROR "integrity dump has no incident count to edit")
endif()
file(WRITE ${SCRATCH}/claims_50.jsonl "${claimed}")
file(WRITE ${stale_tmp}/setint_replay_24145/replay.50.jsonl "${claimed}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env TMPDIR=${stale_tmp}
          ${REPLAY} ${SCRATCH}/claims_50.jsonl
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "replay read a stale dump (rc=${rc}, expected 1)")
endif()
message(STATUS "replay round-trip: all scenarios reproduced bit-for-bit")
