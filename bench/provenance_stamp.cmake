# Writes the header bench/json_file.hpp includes ahead of provenance.hpp,
# only when its stamp changed, so an unchanged stamp recompiles nothing:
#   cmake -DSOURCE_DIR=<repo> -DBUILD_TYPE=<type> -DOUT=<header> -P <this>
execute_process(COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SOURCE_DIR} OUTPUT_VARIABLE git
  OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
if(NOT git)
  set(git "unknown")
endif()
set(stamp "#define NVMENC_GIT_DESCRIBE \"${git}\"
#define NVMENC_BUILD_TYPE \"${BUILD_TYPE}\"
")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT "${old}" STREQUAL "${stamp}")
  file(WRITE "${OUT}" "${stamp}")
endif()
