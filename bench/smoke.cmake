# Script behind the bench_smoke CTest target: runs every harness binary in
# BENCH_DIR at miniature scale (the caller sets FTVOD_BENCH_SMOKE=1 in the
# environment) and fails if any exits nonzero or prints a failed paper
# shape check ("[SHAPE FAIL]").
file(GLOB binaries ${BENCH_DIR}/*)
foreach(bin ${binaries})
  get_filename_component(name ${bin} NAME)
  if(name MATCHES "\\.(json|csv|txt|dat)$")
    continue()  # output files from earlier manual runs
  endif()
  execute_process(COMMAND ${bin} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: ${name} failed (exit ${rc})")
  endif()
  if(out MATCHES "SHAPE FAIL")
    string(REGEX MATCHALL "[^\n]*SHAPE FAIL[^\n]*" failed "${out}")
    string(REPLACE ";" "\n" failed "${failed}")
    message(FATAL_ERROR "bench_smoke: ${name} failed a shape check:\n${failed}")
  endif()
  string(REGEX MATCHALL "shape OK" passed "${out}")
  list(LENGTH passed n_ok)
  message(STATUS "bench_smoke: ${name} ok (${n_ok} shape checks)")
endforeach()
