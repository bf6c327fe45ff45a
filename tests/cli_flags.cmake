# Checks isex's numeric flags for ctest (registered in tests/CMakeLists.txt).
#
# Every numeric flag takes one whole decimal token (--seed and --set also
# take 0x hex), and a leading zero never makes a number octal:
#
#   -DMODE=reject -DARGS="explore|k.tac|--issue|2x" [-DEXIT_CODE=1]
#       `isex ARGS` (a '|'-separated list) must exit with EXIT_CODE, by
#       default 2, the usage error;
#   -DMODE=seed -DKERNEL=k.tac -DSEEDS="010|10|8" -DWORK=dir
#       `isex explore KERNEL --seed S` writes the same convergence curve
#       for the first two seeds and a different one for the third.
#
# ISEX is the isex binary.
cmake_minimum_required(VERSION 3.16)

if(MODE STREQUAL "reject")
  if(NOT DEFINED EXIT_CODE)
    set(EXIT_CODE 2)
  endif()
  string(REPLACE "|" ";" args "${ARGS}")
  execute_process(COMMAND "${ISEX}" ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL EXIT_CODE)
    message(FATAL_ERROR
            "isex ${ARGS}: exit ${rc}, want ${EXIT_CODE}\n${err}")
  endif()
elseif(MODE STREQUAL "seed")
  string(REPLACE "|" ";" seeds "${SEEDS}")
  file(MAKE_DIRECTORY "${WORK}")
  set(index 0)
  foreach(seed IN LISTS seeds)
    set(csv "${WORK}/curve_${index}.csv")
    execute_process(COMMAND "${ISEX}" explore "${KERNEL}" --jobs 1
                            --repeats 1 --seed ${seed} --convergence-out "${csv}"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "isex explore --seed ${seed}: exit ${rc}\n${err}")
    endif()
    file(READ "${csv}" curve_${index})
    math(EXPR index "${index} + 1")
  endforeach()
  list(GET seeds 0 first)
  list(GET seeds 1 same)
  list(GET seeds 2 other)
  if(NOT curve_0 STREQUAL curve_1)
    message(FATAL_ERROR "--seed ${first} explored unlike --seed ${same}")
  endif()
  if(curve_0 STREQUAL curve_2)
    message(FATAL_ERROR "--seed ${first} explored like --seed ${other}")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
