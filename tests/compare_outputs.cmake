# Run a binary in an empty directory and byte-compare its stdout and
# the files it writes with checked-in baselines. ctest runs it as
#
#   cmake -DBINARY=<path> [-DARGS=<a,b,...>] -DWORK_DIR=<dir>
#         -DBASELINE_DIR=<dir> -DSTDOUT=<name> [-DFILES=<a,b,...>]
#         -P tests/compare_outputs.cmake
#
# ARGS are the binary's arguments. Its stdout is saved as
# WORK_DIR/STDOUT and compared with BASELINE_DIR/STDOUT; each of FILES
# must be written into WORK_DIR and match BASELINE_DIR/<name>. Lists
# are comma-separated, because ctest would split a ';' list into
# separate arguments.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_FILE "${WORK_DIR}/${STDOUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${args} failed: ${status}")
endif()

string(REPLACE "," ";" files "${FILES}")
set(differing)
foreach(name ${STDOUT} ${files})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${BASELINE_DIR}/${name}" "${WORK_DIR}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND differing "${name}")
  endif()
endforeach()
if(differing)
  message(FATAL_ERROR "differs from ${BASELINE_DIR}: ${differing} "
                      "(outputs kept in ${WORK_DIR})")
endif()
