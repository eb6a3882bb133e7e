# Fails unless the objects compiled with a wide-ISA flag (dense_avx512.cpp)
# define no external symbol besides their kernel table:
#   cmake -DNM=<nm> -DOBJECTS=<object list> -P isa_exports.cmake
# A weak copy of an inline or template function emitted there would hold
# AVX-512 code, and the linker may keep that copy for every caller in the
# program, including the ones that run on CPUs without AVX-512.
set(checked 0)
foreach(obj IN LISTS OBJECTS)
  if(NOT obj MATCHES "dense_avx512")
    continue()
  endif()
  execute_process(COMMAND ${NM} --defined-only --extern-only ${obj}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}: ${err}")
  endif()
  string(REGEX REPLACE "[^\n]*kDenseKernelsAvx512[^\n]*\n?" "" rest "${out}")
  if(NOT rest STREQUAL "")
    message(FATAL_ERROR "${obj} exports more than its kernel table:\n${rest}")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
message(STATUS "checked ${checked} wide-ISA object(s)")
