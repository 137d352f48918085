# Runs serving_slo on tests/bench/quoted_names.json -- a scenario named
# `diurnal "quoted" \ run` with tenants `front "end"` and `batch\jobs` --
# and parses its BENCH_serving.json with string(JSON), checking the names.
#
#   cmake -DBENCH=<serving_slo> -DSCENARIO=<quoted_names.json>
#         -DOUT_DIR=<scratch dir> -P bench_json_parses.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env TFSIM_CSV_DIR=${OUT_DIR}
          TFSIM_SERVING_US=400 "${BENCH}" --scenario=${SCENARIO}
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${OUT_DIR}/BENCH_serving.json" doc)

# string(JSON) fails on a document that is not valid JSON.
string(JSON name ERROR_VARIABLE err GET "${doc}" context scenario)
if(err)
  message(FATAL_ERROR "BENCH_serving.json is not valid JSON: ${err}")
endif()
if(NOT name STREQUAL "diurnal \"quoted\" \\ run")
  message(FATAL_ERROR "context.scenario reads [${name}]")
endif()
string(JSON rows LENGTH "${doc}" benchmarks)
set(tenants "")
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
  string(JSON row GET "${doc}" benchmarks ${i} name)
  if(row MATCHES "^serving/tenant/")
    list(APPEND tenants "${row}")
  endif()
endforeach()
set(want "serving/tenant/front \"end\"" "serving/tenant/batch\\jobs")
if(NOT tenants STREQUAL want)
  message(FATAL_ERROR "tenant rows read [${tenants}], want [${want}]")
endif()
