# Runs one paper-reproduction binary and compares its stdout byte for
# byte with the checked-in golden file; on a mismatch prints a unified
# diff and fails.
#
#   cmake -DBIN=path/to/bench_x -DGOLDEN=bench/golden/bench_x.txt
#         -DACTUAL=scratch/bench_x.txt -P golden_check.cmake
#
# A change that means to move a paper number regenerates the golden file
# (`build/bench/bench_x > bench/golden/bench_x.txt`) in the same commit.
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
