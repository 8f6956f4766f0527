# Writes OUT, a header defining LVISH_GIT_REV as `git describe --always
# --dirty --abbrev=12` of SOURCE_DIR, or "unknown" outside a git checkout.
# Run at build time by the lvish_git_revision target:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P cmake/GitRevision.cmake
#
# The header is rewritten only when its text changes, so an unchanged
# revision rebuilds nothing.
execute_process(COMMAND git describe --always --dirty --abbrev=12
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE REV
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0 OR REV STREQUAL "")
  set(REV "unknown")
endif()
set(TEXT "#define LVISH_GIT_REV \"${REV}\"\n")
set(OLD "")
if(EXISTS ${OUT})
  file(READ ${OUT} OLD)
endif()
if(NOT OLD STREQUAL TEXT)
  file(WRITE ${OUT} "${TEXT}")
endif()
