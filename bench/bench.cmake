# Benchmark harnesses. Declared with include() from the top-level lists so
# that ${CMAKE_BINARY_DIR}/bench contains only the runnable binaries (the
# evaluation loop is `for b in build/bench/*; do $b; done`).

function(ftvod_bench name src)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${src})
  target_link_libraries(${name} PRIVATE
    ftvod_vod ftvod_gcs ftvod_mpeg ftvod_metrics ftvod_net ftvod_sim
    ftvod_util)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

ftvod_bench(fig4_lan fig4_lan.cpp)
ftvod_bench(fig5_wan fig5_wan.cpp)
ftvod_bench(tab_flow_policy tab_flow_policy.cpp)
ftvod_bench(tab_emergency tab_emergency.cpp)
ftvod_bench(tab_sync_overhead tab_sync_overhead.cpp)
ftvod_bench(tab_takeover tab_takeover.cpp)
ftvod_bench(tab_ktolerance tab_ktolerance.cpp)
ftvod_bench(tab_quality tab_quality.cpp)
ftvod_bench(ablation_buffer ablation_buffer.cpp)
ftvod_bench(ablation_watermarks ablation_watermarks.cpp)
ftvod_bench(ablation_sync_period ablation_sync_period.cpp)
ftvod_bench(micro_gcs micro_gcs.cpp)
target_link_libraries(micro_gcs PRIVATE benchmark::benchmark)
ftvod_bench(ablation_congestion ablation_congestion.cpp)
ftvod_bench(tab_scalability tab_scalability.cpp)
ftvod_bench(city_scale city_scale.cpp)
target_link_libraries(city_scale PRIVATE ftvod_testing ftvod_workload)

# Tier-1 smoke: every harness binary must run to completion at miniature
# scale (FTVOD_BENCH_SMOKE=1) and exit 0.
add_test(NAME bench_smoke
  COMMAND ${CMAKE_COMMAND} -DBENCH_DIR=${CMAKE_BINARY_DIR}/bench
          -P ${CMAKE_SOURCE_DIR}/bench/smoke.cmake
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
set_tests_properties(bench_smoke PROPERTIES
  LABELS tier1
  ENVIRONMENT "FTVOD_BENCH_SMOKE=1"
  TIMEOUT 120)
