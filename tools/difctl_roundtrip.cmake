# CTest script: exercise the difctl pipeline end to end.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

execute_process(COMMAND ${DIFCTL} generate --hosts 4 --components 10 --seed 3
                OUTPUT_FILE ${WORKDIR}/sys.json RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed")
endif()
run(${DIFCTL} evaluate ${WORKDIR}/sys.json)
run(${DIFCTL} tables ${WORKDIR}/sys.json)
run(${DIFCTL} render ${WORKDIR}/sys.json)
run(${DIFCTL} render ${WORKDIR}/sys.json --dot)
run(${DIFCTL} sweep ${WORKDIR}/sys.json --from host0 --to host1 --steps 3)
execute_process(COMMAND ${DIFCTL} improve ${WORKDIR}/sys.json
                        --algorithm hillclimb
                OUTPUT_FILE ${WORKDIR}/improved.json RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "improve failed")
endif()
run(${DIFCTL} evaluate ${WORKDIR}/improved.json)
execute_process(COMMAND ${DIFCTL} portfolio ${WORKDIR}/sys.json
                        --threads 2 --max-evals 20000
                OUTPUT_FILE ${WORKDIR}/portfolio.json RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "portfolio failed")
endif()
run(${DIFCTL} evaluate ${WORKDIR}/portfolio.json)

# The static checker accepts what the generator writes, constraints included.
foreach(seed 1 2 3 5 8 13)
  execute_process(COMMAND ${DIFCTL} generate --hosts 6 --components 16
                          --seed ${seed} --constraints 4
                  OUTPUT_FILE ${WORKDIR}/roundtrip_gen_${seed}.json
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "generate --seed ${seed} failed")
  endif()
  run(${DIFCTL} check ${WORKDIR}/roundtrip_gen_${seed}.json)
endforeach()

function(expect_schema report schema)
  file(READ ${report} doc)
  string(JSON got GET "${doc}" schema)
  if(NOT got STREQUAL schema)
    message(FATAL_ERROR "${report}: schema '${got}', expected '${schema}'")
  endif()
endfunction()

# A portfolio-improved placement audits clean.
execute_process(COMMAND ${DIFCTL} audit ${WORKDIR}/portfolio.json --json
                OUTPUT_FILE ${WORKDIR}/audit.json RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "audit rejected a portfolio-improved placement")
endif()
expect_schema(${WORKDIR}/audit.json dif-audit-v1)

# Each run-and-report verb on a small seed: exit 0 (clean) or 3 (finished,
# but some round or SLO degraded), and a JSON report under its schema.
function(run_report report schema)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT (code EQUAL 0 OR code EQUAL 3))
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${err}")
  endif()
  expect_schema(${report} ${schema})
endfunction()

run_report(${WORKDIR}/metrics.json dif-metrics-v1
  ${DIFCTL} simulate ${WORKDIR}/sys.json --duration-ms 20000
  --interval-ms 3000 --seed 7 --metrics-json ${WORKDIR}/metrics.json
  --trace-json ${WORKDIR}/trace.json)
expect_schema(${WORKDIR}/trace.json dif-trace-v1)
run_report(${WORKDIR}/campaign.json dif-campaign-v1
  ${DIFCTL} campaign --seeds 0 --scenario mixed
  --json ${WORKDIR}/campaign.json)
run_report(${WORKDIR}/fuzz.json dif-fuzz-v1
  ${DIFCTL} fuzz --seed 0 --rounds 1 --json ${WORKDIR}/fuzz.json)
run_report(${WORKDIR}/heal.json dif-campaign-v1
  ${DIFCTL} heal --seeds 0 --json ${WORKDIR}/heal.json)
run_report(${WORKDIR}/traffic.json dif-traffic-v1
  ${DIFCTL} traffic --hosts 5 --components 12 --seed 7 --duration-ms 10000
  --json ${WORKDIR}/traffic.json)
