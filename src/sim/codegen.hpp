/**
 * @file
 * Code-generation attributes for hot functions. Both change only
 * where and how a function's machine code is laid out, never what it
 * computes.
 */

#ifndef HYGCN_SIM_CODEGEN_HPP
#define HYGCN_SIM_CODEGEN_HPP

/**
 * Runtime ISA dispatch for hot loops. The generic x86-64 baseline the
 * repo builds for is SSE2; a function marked HYGCN_TARGET_CLONES also
 * gets AVX2 and AVX-512 bodies, and the loader's IFUNC resolver picks
 * the widest the host supports. Inside such a function,
 * HYGCN_CLONE_HAS("avx512f") is true in the body that runs exactly
 * when it was compiled for that ISA, so a body can pick a lane count
 * that suits its registers; where the function compiles only once, it
 * is false. A clone may only change speed, never a result: callers
 * keep lanes independent and build with -ffp-contract=off, so every
 * lane sees the same operation sequence at any vector width. On
 * non-GCC or non-x86 builds the macro is empty and the function
 * compiles once at the default ISA. Sanitizer builds also compile
 * once: IFUNC resolvers run during relocation, before the TSAN/ASAN
 * runtimes initialize, and the instrumented resolver crashes there.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define HYGCN_TARGET_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#define HYGCN_CLONE_HAS(isa) __builtin_cpu_supports(isa)
#else
#define HYGCN_TARGET_CLONES
#define HYGCN_CLONE_HAS(isa) false
#endif

/**
 * Starts a hot function on a 64-byte boundary, so its loops keep the
 * same placement against cache lines and fetch blocks whatever code
 * the linker puts before it. Without it, a size change in an
 * unrelated file moves the simulator's speed: shifting the PyG-CPU
 * replay and the HBM model by 32 bytes made the paper grid's timed
 * region about 10% slower on an AVX-512 Xeon host (GCC 12). That was
 * shown there alone, by relinking the same objects behind a 32-byte
 * pad object; which functions need the pin on other hosts and
 * toolchains has not been checked.
 */
#if defined(__GNUC__)
#define HYGCN_ALIGN_HOT __attribute__((aligned(64)))
#else
#define HYGCN_ALIGN_HOT
#endif

#endif // HYGCN_SIM_CODEGEN_HPP
