# Build file of the benchmark driver. run.py passes it to the
# repository's CMake project as CMAKE_PROJECT_INCLUDE, so the repository's
# own build files stay untouched. It runs at the top-level project() call
# and defers defining the target to the end of the top-level
# CMakeLists.txt, so the driver is compiled with the repository's build
# type, flags, definitions and include paths, exactly like the tools, and
# links the same libnoelle.
include_guard(GLOBAL)
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_driver)
  add_executable(noelle-perfbench
    ${PERFBENCH_DIR}/main.cpp
    ${PERFBENCH_DIR}/Kernels.cpp
    ${PERFBENCH_DIR}/Oracle.cpp
    ${PERFBENCH_DIR}/Pipeline.cpp)
  target_link_libraries(noelle-perfbench PRIVATE noelle)
  target_compile_options(noelle-perfbench PRIVATE -Wall -Wextra -Werror)
  target_compile_definitions(noelle-perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_SANITIZE="${NOELLE_SANITIZE}")
  set_target_properties(noelle-perfbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER CALL perfbench_add_driver)
