/* One-pass summed area table: one read and one write per element (1R1W).
 *
 * A scratch vector `col` holds the running column sums.  For each row:
 * col[j] += a[i,j]; run += col[j]; out[i,j] = run.  That is the association
 * of a.astype(acc).cumsum(0).cumsum(1), so results are bit-identical to it.
 * Both accumulations start from the first element, as NumPy's accumulate
 * does (so -0.0 inputs keep their sign).  Each input element is widened to
 * the accumulator type as it is read, so a narrow integer matrix is scanned
 * straight into its int64 SAT with no widened copy.  Four rows are
 * interleaved per column step: their running sums are independent
 * dependency chains.  Each 4-row block prefetches the next one, one cache
 * line at a time: the hardware prefetcher retrains at every short row
 * stream, and without the hint a matrix not already in cache took about
 * 1.7x as long at 768x768 float32.
 *
 * `a` and `out` are C-contiguous rows x cols matrices; when their types
 * match they may be the same buffer (the pass reads each element before it
 * writes it).  Returns 0, or -1 when the scratch vector cannot be
 * allocated.
 *
 * Build: cc -O3 -ffp-contract=off -fwrapv -shared -fPIC.  No fast-math (it
 * would reassociate the sums); -fwrapv makes signed overflow wrap as NumPy's
 * int64 does.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

#define LINE 64

/* Input type TIN, accumulator (and output) type T; sizeof(TIN) <= sizeof(T),
 * so every input cache line starts on an output-line step. */
#define SAT_KERNEL(NAME, TIN, T)                                            \
int NAME(const TIN *a, T *out, ptrdiff_t rows, ptrdiff_t cols)             \
{                                                                           \
    T *col = malloc((size_t)cols * sizeof(T));                              \
    ptrdiff_t i = 1, j;                                                     \
    if (col == NULL)                                                        \
        return -1;                                                          \
    T run = col[0] = a[0];                                                  \
    out[0] = run;                                                           \
    for (j = 1; j < cols; j++) {                                            \
        col[j] = a[j];                                                      \
        out[j] = run += col[j];                                             \
    }                                                                       \
    for (; i + 4 <= rows; i += 4) {                                         \
        const TIN *a0 = a + i * cols, *a1 = a0 + cols, *a2 = a1 + cols,     \
                  *a3 = a2 + cols;                                          \
        T *o0 = out + i * cols, *o1 = o0 + cols, *o2 = o1 + cols,           \
          *o3 = o2 + cols;                                                  \
        const int next = i + 8 <= rows;                                     \
        T r0 = col[0] + a0[0], r1 = r0 + a1[0], r2 = r1 + a2[0],            \
          r3 = r2 + a3[0], c;                                               \
        col[0] = r3;                                                        \
        o0[0] = r0; o1[0] = r1; o2[0] = r2; o3[0] = r3;                     \
        for (j = 1; j < cols; j++) {                                        \
            if (next && (j & (LINE / sizeof(T) - 1)) == 0) {                \
                if ((j & (LINE / sizeof(TIN) - 1)) == 0) {                  \
                    __builtin_prefetch(a3 + cols + j);                      \
                    __builtin_prefetch(a3 + 2 * cols + j);                  \
                    __builtin_prefetch(a3 + 3 * cols + j);                  \
                    __builtin_prefetch(a3 + 4 * cols + j);                  \
                }                                                           \
                __builtin_prefetch(o3 + cols + j, 1);                       \
                __builtin_prefetch(o3 + 2 * cols + j, 1);                   \
                __builtin_prefetch(o3 + 3 * cols + j, 1);                   \
                __builtin_prefetch(o3 + 4 * cols + j, 1);                   \
            }                                                               \
            c = col[j] + a0[j]; o0[j] = r0 += c;                            \
            c += a1[j];         o1[j] = r1 += c;                            \
            c += a2[j];         o2[j] = r2 += c;                            \
            c += a3[j];         o3[j] = r3 += c;                            \
            col[j] = c;                                                     \
        }                                                                   \
    }                                                                       \
    for (; i < rows; i++) {                                                 \
        const TIN *ai = a + i * cols;                                       \
        T *oi = out + i * cols;                                             \
        run = col[0] += ai[0];                                              \
        oi[0] = run;                                                        \
        for (j = 1; j < cols; j++)                                          \
            oi[j] = run += col[j] += ai[j];                                 \
    }                                                                       \
    free(col);                                                              \
    return 0;                                                               \
}

/* Each accumulator type over itself. */
SAT_KERNEL(sat_float32_float32, float, float)
SAT_KERNEL(sat_float64_float64, double, double)
SAT_KERNEL(sat_int64_int64, int64_t, int64_t)
SAT_KERNEL(sat_uint64_uint64, uint64_t, uint64_t)
/* The narrow integers the exact dtype policy widens to int64. */
SAT_KERNEL(sat_int8_int64, int8_t, int64_t)
SAT_KERNEL(sat_int16_int64, int16_t, int64_t)
SAT_KERNEL(sat_int32_int64, int32_t, int64_t)
SAT_KERNEL(sat_uint8_int64, uint8_t, int64_t)
SAT_KERNEL(sat_uint16_int64, uint16_t, int64_t)
SAT_KERNEL(sat_uint32_int64, uint32_t, int64_t)
