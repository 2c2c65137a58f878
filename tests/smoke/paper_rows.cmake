# Paper-row pin run via `cmake -P`: execute a paper bench with
# --stats-json and require every pinned metric to print exactly as
# committed (json_validate's key=number form compares at the pinned
# text's own decimals, the precision the bench tables print). An
# engine or model change that moves a paper row fails here instead of
# shifting the figure silently.
#
# Required -D variables:
#   BENCH     - paper benchmark executable
#   VALIDATOR - json_validate executable
#   OUT       - path for the JSON result file
#   PINS      - ;-list of dotted.key=number pins

foreach(var BENCH VALIDATOR OUT PINS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "paper_rows.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE "${OUT}")

execute_process(
    COMMAND "${BENCH}" "--stats-json=${OUT}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "paper_rows.cmake: ${BENCH} exited with ${bench_rc}")
endif()

execute_process(
    COMMAND "${VALIDATOR}" "${OUT}" ${PINS}
    RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
    message(FATAL_ERROR "paper_rows.cmake: a paper row moved (see above)")
endif()
