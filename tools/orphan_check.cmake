# CTest script: no orphan modules under src/.
#
# A header under src/ that is #included only by its own .cpp and by tests/
# is a second path that no shipped run reaches. Every src/**/*.h must be
# included by some other file in src/, tools/, bench/, examples/ or
# perfbench/.
#
# Usage: cmake -DSOURCE_DIR=<repo root> -P orphan_check.cmake
cmake_minimum_required(VERSION 3.16)

# Allowed exceptions, each with its reason.
set(allowed
  # The only implementation of DeSi's Modifier (paper Section 4.1); an
  # integration test drives it through the improvement loop.
  desi/modifier.h
)

file(GLOB_RECURSE headers RELATIVE ${SOURCE_DIR}/src ${SOURCE_DIR}/src/*.h)

set(used)
foreach(dir src tools bench examples perfbench)
  file(GLOB_RECURSE files RELATIVE ${SOURCE_DIR}
       ${SOURCE_DIR}/${dir}/*.h ${SOURCE_DIR}/${dir}/*.cpp)
  foreach(file IN LISTS files)
    # src/x/y.cpp including x/y.h is the header's own translation unit.
    set(own "")
    if(file MATCHES "^src/(.+)\\.cpp$")
      set(own "${CMAKE_MATCH_1}.h")
    endif()
    file(STRINGS ${SOURCE_DIR}/${file} lines REGEX "^#include \"")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" header "${line}")
      if(NOT header STREQUAL own)
        list(APPEND used ${header})
      endif()
    endforeach()
  endforeach()
endforeach()

set(orphans)
foreach(header IN LISTS headers)
  if(NOT header IN_LIST used AND NOT header IN_LIST allowed)
    list(APPEND orphans ${header})
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  src/" listing)
  message(FATAL_ERROR
    "headers included only by their own .cpp and tests/:\n  src/${listing}")
endif()
