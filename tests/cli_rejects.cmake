# Runs BIN with ARGS (;-separated) and requires the clean rejection of bad
# input: exit status 2 and an "error: invalid scenario" line on stderr (not
# an assert abort, and not a run that silently accepts the value).
if(NOT DEFINED BIN)
  message(FATAL_ERROR "cli_rejects.cmake needs -DBIN=...")
endif()

execute_process(
  COMMAND ${BIN} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "error: invalid scenario")
  message(FATAL_ERROR "${BIN} ${ARGS}: no 'error: invalid scenario' on stderr\n${err}")
endif()
