# Script behind the bench_smoke CTest target: runs every harness binary in
# BENCH_DIR at miniature scale (the caller sets FTVOD_BENCH_SMOKE=1 in the
# environment) and fails if any exits nonzero.
file(GLOB binaries ${BENCH_DIR}/*)
foreach(bin ${binaries})
  get_filename_component(name ${bin} NAME)
  if(name MATCHES "\\.(json|csv|txt|dat)$")
    continue()  # output files from earlier manual runs
  endif()
  execute_process(COMMAND ${bin} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${name} failed (exit ${rc})")
  endif()
  message(STATUS "bench_smoke: ${name} ok")
endforeach()
