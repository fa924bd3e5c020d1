# CTest script: difctl CLI error paths and `check` exit-code contract.
#
# Usage errors exit 2, defect/IO failures exit 1, clean runs exit 0.
function(expect code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE got
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got EQUAL ${code})
    message(FATAL_ERROR
      "expected exit ${code}, got ${got}: ${ARGN}\n${out}\n${err}")
  endif()
  set(LAST_OUT "${out}" PARENT_SCOPE)
  set(LAST_ERR "${err}" PARENT_SCOPE)
endfunction()

function(expect_in_output needle)
  string(FIND "${LAST_OUT}${LAST_ERR}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "output does not contain '${needle}':\n${LAST_OUT}\n${LAST_ERR}")
  endif()
endfunction()

# --- usage errors: exit 2 with usage text -----------------------------------
expect(2 ${DIFCTL})
expect_in_output("usage:")
expect(2 ${DIFCTL} frobnicate)
expect_in_output("usage:")
expect(2 ${DIFCTL} check)          # missing path operand
expect_in_output("usage:")

# --- malformed numeric flag values: exit 2, naming the flag -----------------
expect(2 ${DIFCTL} generate --hosts abc)
expect_in_output("--hosts")
expect(2 ${DIFCTL} generate --hosts 12x)
expect_in_output("--hosts")
expect(2 ${DIFCTL} generate --hosts -1)
expect_in_output("--hosts")
expect(2 ${DIFCTL} generate --seed -1)
expect_in_output("--seed")
expect(2 ${DIFCTL} campaign --duration-ms x)
expect_in_output("--duration-ms")
expect(2 ${DIFCTL} campaign --seeds 0..x)
expect_in_output("--seeds")

# --- I/O and parse errors: exit 1 with a diagnostic -------------------------
expect(1 ${DIFCTL} check ${WORKDIR}/no_such_file.json)
expect(1 ${DIFCTL} evaluate ${WORKDIR}/no_such_file.json)
file(WRITE ${WORKDIR}/malformed.json "{\"hosts\": [")
expect(1 ${DIFCTL} check ${WORKDIR}/malformed.json)
expect(1 ${DIFCTL} evaluate ${WORKDIR}/malformed.json)
file(WRITE ${WORKDIR}/wrong_shape.json "{\"hosts\": 42}")
expect(1 ${DIFCTL} check ${WORKDIR}/wrong_shape.json)

# --- check on a statically-broken model: exit 1, rule id in output ----------
file(WRITE ${WORKDIR}/defect.json [[{
  "hosts": [
    {"name": "h0", "memory": 100.0},
    {"name": "h1", "memory": 100.0}
  ],
  "components": [
    {"name": "c0", "memory": 10.0},
    {"name": "c1", "memory": 120.0}
  ],
  "physical_links": [
    {"a": "h0", "b": "h1", "reliability": 0.9, "bandwidth": 50.0}
  ],
  "logical_links": [],
  "constraints": {
    "colocate": [{"a": "c0", "b": "c1"}],
    "separate": [{"a": "c0", "b": "c1"}]
  }
}]])
expect(1 ${DIFCTL} check ${WORKDIR}/defect.json)
expect_in_output("colocation-conflict")
expect_in_output("capacity-pigeonhole")
expect(1 ${DIFCTL} check ${WORKDIR}/defect.json --json)
expect_in_output("\"diagnostics\"")

# --- evaluate: exit 1 iff the placement breaks a rule, naming the rule ------
file(WRITE ${WORKDIR}/misplaced.json [[{
  "hosts": [
    {"name": "h0", "memory": 100.0},
    {"name": "h1", "memory": 100.0}
  ],
  "components": [
    {"name": "c0", "memory": 10.0},
    {"name": "c1", "memory": 10.0}
  ],
  "physical_links": [
    {"a": "h0", "b": "h1", "reliability": 0.9, "bandwidth": 50.0}
  ],
  "logical_links": [{"a": "c0", "b": "c1", "frequency": 1.0, "event_size": 1.0}],
  "constraints": {
    "location_allow": [{"component": "c0", "hosts": ["h1"]}]
  },
  "deployment": {"c0": "h0", "c1": "h1"}
}]])
expect(1 ${DIFCTL} evaluate ${WORKDIR}/misplaced.json)
expect_in_output("error[placement-location] component c0, host h0")
execute_process(COMMAND ${DIFCTL} generate --hosts 5 --components 12 --seed 4
                        --constraints 3
                OUTPUT_FILE ${WORKDIR}/clean.json RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed")
endif()
expect(0 ${DIFCTL} evaluate ${WORKDIR}/clean.json)
expect_in_output("constraints: all satisfied")

# --- warnings: exit 0 by default, 1 under --strict --------------------------
file(WRITE ${WORKDIR}/warn_only.json [[{
  "hosts": [
    {"name": "h0", "memory": 100.0},
    {"name": "h1", "memory": 100.0}
  ],
  "components": [{"name": "c0", "memory": 10.0}],
  "physical_links": [],
  "logical_links": []
}]])
expect(0 ${DIFCTL} check ${WORKDIR}/warn_only.json)
expect_in_output("warning[isolated-host]")
expect(1 ${DIFCTL} check ${WORKDIR}/warn_only.json --strict)

# --- generate | check round trip stays clean across seeds -------------------
foreach(seed 1 5 11)
  execute_process(COMMAND ${DIFCTL} generate --hosts 5 --components 12
                          --seed ${seed} --constraints 3
                  OUTPUT_FILE ${WORKDIR}/gen_${seed}.json
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "generate --seed ${seed} failed")
  endif()
  expect(0 ${DIFCTL} check ${WORKDIR}/gen_${seed}.json)
  expect_in_output("check: clean")
endforeach()
