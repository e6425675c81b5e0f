# The benchmark's build file. It is hooked into the repository's own build,
# so the system under test (hc2l, hc2ld and the library) keeps exactly the
# flags the top-level CMakeLists.txt gives it:
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_hc2l_INCLUDE=$PWD/perfbench/perfbench.cmake \
#         -DHC2L_BUILD_TESTS=OFF -DHC2L_BUILD_BENCHES=OFF -DHC2L_BUILD_EXAMPLES=OFF
#   cmake --build .bench_build --target hc2l_cli hc2ld perfbench_e2e perfbench_layers
#
# (perfbench/run.py does this.) CMake includes this file right after
# project(hc2l); the targets are defined by a deferred call at the end of the
# top-level file, once hc2l_lib exists and the directory's compile options
# (e.g. -mavx2) are final, so the SIMD kernel perfbench_layers inlines is the
# one the library runs.
#
# perfbench_e2e is a plain client: it talks to hc2ld over TCP, runs the hc2l
# CLI and checks answers with its own Dijkstra. It links nothing from the
# library, so it keeps building while the library's internals change.
# perfbench_layers times calls into each layer's functions and so links the
# library.

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  add_executable(perfbench_e2e "${PERFBENCH_DIR}/e2e.cc")
  target_link_libraries(perfbench_e2e PRIVATE Threads::Threads)

  add_executable(perfbench_layers "${PERFBENCH_DIR}/layers.cc")
  target_link_libraries(perfbench_layers PRIVATE hc2l_lib)
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
