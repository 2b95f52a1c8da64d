// Runtime ISA selection without intrinsics.
//
// SCFI_SIMD_CLONES marks a hot kernel written in plain C++ (or GCC vector
// extensions): GCC emits one clone of the whole function per target
// (x86-64-v4, x86-64-v3, baseline) and picks the best at load time via
// IFUNC, so an AVX-512 or AVX2 host runs the kernel's vector code at full
// width while any other x86-64 falls back to the baseline encoding of the
// same source. Release builds pass no -march, so this is the only way the
// kernels see the wider ISAs. `flatten` matters: the kernel's callees must
// be inlined into each clone to be compiled with that clone's ISA. Other
// compilers and sanitizer builds get `flatten` alone.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__)
#define SCFI_SIMD_CLONES \
  __attribute__((flatten, target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define SCFI_SIMD_CLONES __attribute__((flatten))
#endif
