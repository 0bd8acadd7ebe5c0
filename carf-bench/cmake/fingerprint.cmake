# The library's build file runs ${CMAKE_SOURCE_DIR}/cmake/fingerprint.cmake,
# which in this package is this file: forward to the repository's script
# so the benchmark binary carries the same build fingerprint.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/fingerprint.cmake)
