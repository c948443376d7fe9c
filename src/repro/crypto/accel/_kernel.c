/* Compiled crypto kernels for the hot-path primitives.
 *
 * Built at probe time by repro.crypto.accel._compiled (gcc -O2 -shared
 * -lgmp) and loaded through ctypes.  Every function speaks the same
 * marshalling convention: big integers travel as fixed-width big-endian
 * byte strings (the width of the field modulus), so the Python side is
 * one int.to_bytes()/int.from_bytes() per value and the C side is one
 * mpz_import/mpz_export.  All arithmetic is exact modular arithmetic,
 * which is what makes the compiled tier bit-for-bit equivalent to the
 * pure-Python reference tier: there is no algorithmic freedom that
 * could change a result, only the speed at which it is produced.
 *
 * The AES block chains at the end of the file are byte kernels that need
 * no GMP: the caller passes the round-key words and the T-tables, which
 * repro.crypto.aes derives from GF(2^8) in one place only.
 *
 * Return conventions:
 *   0   success
 *  -1   a denominator/value had no inverse (callers raise ZeroDivisionError)
 *  -2   malformed input (callers raise ValueError)
 *  >=0  (spx_batch_modinv only) index of the first non-invertible element
 */

#include <gmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* -- marshalling ---------------------------------------------------------- */

static void import_be(mpz_t z, const uint8_t *buf, size_t width) {
    mpz_import(z, width, 1, 1, 1, 0, buf);
}

static void export_be(uint8_t *buf, size_t width, const mpz_t z) {
    size_t bytes = (mpz_sizeinbase(z, 2) + 7) / 8;
    memset(buf, 0, width);
    if (mpz_sgn(z) == 0 || bytes > width)
        return; /* caller guarantees z < 2^(8*width); zero exports nothing */
    mpz_export(buf + (width - bytes), NULL, 1, 1, 1, 0, z);
}

/* -- GF(q^2) helpers ------------------------------------------------------ */

/* (ra, rb) = (aa + ab*i) * (ba + bb*i) mod q.  Result operands must not
 * alias the inputs; callers pass dedicated temporaries. */
static void fq2_mul(mpz_t ra, mpz_t rb, const mpz_t aa, const mpz_t ab,
                    const mpz_t ba, const mpz_t bb, const mpz_t q,
                    mpz_t t1, mpz_t t2) {
    mpz_mul(t1, aa, ba);        /* t1 = aa*ba           */
    mpz_mul(t2, ab, bb);        /* t2 = ab*bb           */
    mpz_mul(rb, aa, bb);        /* rb = aa*bb           */
    mpz_addmul(rb, ab, ba);     /* rb = aa*bb + ab*ba   */
    mpz_sub(ra, t1, t2);        /* ra = aa*ba - ab*bb   */
    mpz_mod(ra, ra, q);
    mpz_mod(rb, rb, q);
}

/* (ra, rb) = (aa + ab*i)^2 mod q.  No-alias, as above. */
static void fq2_sqr(mpz_t ra, mpz_t rb, const mpz_t aa, const mpz_t ab,
                    const mpz_t q, mpz_t t1, mpz_t t2) {
    mpz_sub(t1, aa, ab);
    mpz_add(t2, aa, ab);
    mpz_mul(ra, t1, t2);        /* (a - b)(a + b) */
    mpz_mul(rb, aa, ab);
    mpz_mul_2exp(rb, rb, 1);    /* 2ab */
    mpz_mod(ra, ra, q);
    mpz_mod(rb, rb, q);
}

/* -- scalar primitives ---------------------------------------------------- */

int spx_mulmod(const uint8_t *mod_buf, size_t width, const uint8_t *a_buf,
               const uint8_t *b_buf, uint8_t *out_buf) {
    mpz_t m, a, b;
    mpz_inits(m, a, b, NULL);
    import_be(m, mod_buf, width);
    import_be(a, a_buf, width);
    import_be(b, b_buf, width);
    mpz_mul(a, a, b);
    mpz_mod(a, a, m);
    export_be(out_buf, width, a);
    mpz_clears(m, a, b, NULL);
    return 0;
}

int spx_powmod(const uint8_t *mod_buf, size_t width, const uint8_t *base_buf,
               const uint8_t *exp_buf, size_t exp_width, uint8_t *out_buf) {
    mpz_t m, base, e;
    mpz_inits(m, base, e, NULL);
    import_be(m, mod_buf, width);
    import_be(base, base_buf, width);
    import_be(e, exp_buf, exp_width);
    mpz_powm(base, base, e, m);
    export_be(out_buf, width, base);
    mpz_clears(m, base, e, NULL);
    return 0;
}

int spx_modinv(const uint8_t *mod_buf, size_t width, const uint8_t *a_buf,
               uint8_t *out_buf) {
    mpz_t m, a;
    int ok;
    mpz_inits(m, a, NULL);
    import_be(m, mod_buf, width);
    import_be(a, a_buf, width);
    ok = mpz_invert(a, a, m);
    if (ok)
        export_be(out_buf, width, a);
    mpz_clears(m, a, NULL);
    return ok ? 0 : -1;
}

/* Montgomery's trick in place: vals[i] <- vals[i]^-1 mod m for i < count,
 * with one mpz_invert plus 3(count-1) multiplications.  vals must be
 * reduced mod m; prefix holds count scratch values, inv, t and g are
 * scratch.  Returns -1 on success; otherwise the index of the FIRST
 * element (in input order) that is zero or shares a factor with m, with
 * vals unchanged.  Both spx_batch_modinv and the Miller loop's slope
 * denominators go through here, so the trick exists once. */
static long batch_invert(mpz_t *vals, mpz_t *prefix, size_t count,
                         const mpz_t m, mpz_t inv, mpz_t t, mpz_t g) {
    size_t i;

    if (count == 0)
        return -1;
    mpz_set_ui(t, 1);
    for (i = 0; i < count; i++) {
        if (mpz_sgn(vals[i]) == 0)
            return (long)i;
        mpz_mul(t, t, vals[i]);
        mpz_mod(t, t, m);
        mpz_set(prefix[i], t);
    }
    if (!mpz_invert(inv, prefix[count - 1], m)) {
        /* Some element shares a factor with m; report the first. */
        for (i = 0; i < count; i++) {
            mpz_gcd(g, vals[i], m);
            if (mpz_cmp_ui(g, 1) != 0)
                return (long)i;
        }
        return -2; /* cannot happen: product not invertible, parts are */
    }
    for (i = count - 1; i > 0; i--) {
        mpz_mul(t, prefix[i - 1], inv);      /* vals[i]^-1         */
        mpz_mod(t, t, m);
        mpz_mul(inv, inv, vals[i]);          /* prefix[i - 1]^-1   */
        mpz_mod(inv, inv, m);
        mpz_swap(vals[i], t);
    }
    mpz_swap(vals[0], inv);
    return -1;
}

/* Montgomery batch inversion over width-byte values.  Returns -1 on
 * success; otherwise the index of the FIRST element (in input order)
 * that is zero or shares a factor with the modulus, so the Python
 * wrapper can raise the same error the pure tier raises. */
long spx_batch_modinv(const uint8_t *mod_buf, size_t width,
                      const uint8_t *values_buf, size_t count,
                      uint8_t *out_buf) {
    mpz_t m, inv, t, g;
    mpz_t *vals, *prefix;
    size_t i;
    long bad;

    if (count == 0)
        return -1;
    vals = malloc(count * sizeof(mpz_t));
    prefix = malloc(count * sizeof(mpz_t));
    if (!vals || !prefix) {
        free(vals);
        free(prefix);
        return -2;
    }
    mpz_inits(m, inv, t, g, NULL);
    import_be(m, mod_buf, width);
    for (i = 0; i < count; i++) {
        mpz_inits(vals[i], prefix[i], NULL);
        import_be(vals[i], values_buf + i * width, width);
        mpz_mod(vals[i], vals[i], m);
    }
    bad = batch_invert(vals, prefix, count, m, inv, t, g);
    if (bad == -1)
        for (i = 0; i < count; i++)
            export_be(out_buf + i * width, width, vals[i]);
    for (i = 0; i < count; i++)
        mpz_clears(vals[i], prefix[i], NULL);
    free(vals);
    free(prefix);
    mpz_clears(m, inv, t, g, NULL);
    return bad;
}

/* -- G0 scalar multiplication ---------------------------------------------- */

/* (X, Y, Z) = 2 (X, Y, Z) in Jacobian coordinates on y^2 = x^3 + x
 * (Z == 0 is the point at infinity). */
static void ec_jdouble(mpz_t X, mpz_t Y, mpz_t Z, const mpz_t q, mpz_t yy,
                       mpz_t s, mpz_t m, mpz_t t) {
    if (mpz_sgn(Z) == 0 || mpz_sgn(Y) == 0) {
        mpz_set_ui(Z, 0);
        return;
    }
    mpz_mul(yy, Y, Y);
    mpz_mod(yy, yy, q);                 /* YY = Y^2           */
    mpz_mul(s, X, yy);
    mpz_mul_2exp(s, s, 2);
    mpz_mod(s, s, q);                   /* S = 4 X YY         */
    mpz_mul(t, Z, Z);
    mpz_mod(t, t, q);
    mpz_mul(m, t, t);                   /* Z^4                */
    mpz_mul(t, X, X);
    mpz_addmul_ui(m, t, 3);
    mpz_mod(m, m, q);                   /* M = 3 X^2 + Z^4    */
    mpz_mul(Z, Y, Z);
    mpz_mul_2exp(Z, Z, 1);
    mpz_mod(Z, Z, q);                   /* Z' = 2 Y Z         */
    mpz_mul(X, m, m);
    mpz_submul_ui(X, s, 2);
    mpz_mod(X, X, q);                   /* X' = M^2 - 2 S     */
    mpz_sub(t, s, X);
    mpz_mul(Y, m, t);
    mpz_mul(t, yy, yy);
    mpz_submul_ui(Y, t, 8);
    mpz_mod(Y, Y, q);                   /* Y' = M (S - X') - 8 YY^2 */
}

/* (X, Y, Z) += (x, y, 1): mixed Jacobian + affine addition, falling back
 * to doubling when the points coincide and to infinity for P + (-P). */
static void ec_jadd_affine(mpz_t X, mpz_t Y, mpz_t Z, const mpz_t x,
                           const mpz_t y, const mpz_t q, mpz_t u2, mpz_t s2,
                           mpz_t h, mpz_t hh, mpz_t t) {
    if (mpz_sgn(Z) == 0) {
        mpz_set(X, x);
        mpz_set(Y, y);
        mpz_set_ui(Z, 1);
        return;
    }
    mpz_mul(t, Z, Z);
    mpz_mod(t, t, q);                   /* Z1Z1               */
    mpz_mul(u2, x, t);
    mpz_mod(u2, u2, q);                 /* U2 = x Z1Z1        */
    mpz_mul(s2, t, Z);
    mpz_mul(s2, s2, y);
    mpz_mod(s2, s2, q);                 /* S2 = y Z1 Z1Z1     */
    if (mpz_cmp(X, u2) == 0) {
        if (mpz_cmp(Y, s2) != 0)
            mpz_set_ui(Z, 0);           /* P + (-P) = O       */
        else
            ec_jdouble(X, Y, Z, q, u2, s2, h, t);
        return;
    }
    mpz_sub(h, u2, X);
    mpz_mod(h, h, q);                   /* H = U2 - X1        */
    mpz_mul(hh, h, h);
    mpz_mod(hh, hh, q);                 /* HH                 */
    mpz_mul(Z, Z, h);
    mpz_mod(Z, Z, q);                   /* Z3 = Z1 H          */
    mpz_mul(h, h, hh);
    mpz_mod(h, h, q);                   /* h := HHH           */
    mpz_mul(hh, X, hh);
    mpz_mod(hh, hh, q);                 /* hh := V = X1 HH    */
    mpz_sub(s2, s2, Y);
    mpz_mod(s2, s2, q);                 /* s2 := R = S2 - Y1  */
    mpz_mul(Y, Y, h);                   /* Y := Y1 HHH        */
    mpz_mul(X, s2, s2);
    mpz_sub(X, X, h);
    mpz_submul_ui(X, hh, 2);
    mpz_mod(X, X, q);                   /* X3 = R^2 - HHH - 2 V */
    mpz_sub(t, hh, X);
    mpz_mul(t, t, s2);
    mpz_sub(Y, t, Y);
    mpz_mod(Y, Y, q);                   /* Y3 = R (V - X3) - Y1 HHH */
}

/* k * (x, y) on y^2 = x^3 + x over GF(q), by the same left-to-right
 * double-and-add ladder as repro.crypto.ec.ec_mul_pure.  k is a
 * non-negative k_width-byte big-endian scalar (the caller folds a sign
 * into y).  Returns 0 with the affine result in out_buf (x then y), 1
 * for the point at infinity, -1 if the final Z is not invertible. */
int spx_ec_mul(const uint8_t *mod_buf, size_t width, const uint8_t *x_buf,
               const uint8_t *y_buf, const uint8_t *k_buf, size_t k_width,
               uint8_t *out_buf) {
    mpz_t q, x, y, k, X, Y, Z, t1, t2, t3, t4, t5;
    long bit;
    int rc = 0;
    mpz_inits(q, x, y, k, X, Y, Z, t1, t2, t3, t4, t5, NULL);
    import_be(q, mod_buf, width);
    import_be(x, x_buf, width);
    import_be(y, y_buf, width);
    import_be(k, k_buf, k_width);
    mpz_mod(x, x, q);
    mpz_mod(y, y, q);
    mpz_set_ui(Z, 0);
    if (mpz_sgn(k) != 0) {
        for (bit = (long)mpz_sizeinbase(k, 2) - 1; bit >= 0; bit--) {
            ec_jdouble(X, Y, Z, q, t1, t2, t3, t4);
            if (mpz_tstbit(k, (mp_bitcnt_t)bit))
                ec_jadd_affine(X, Y, Z, x, y, q, t1, t2, t3, t4, t5);
        }
    }
    if (mpz_sgn(Z) == 0)
        rc = 1;
    else if (!mpz_invert(t1, Z, q))
        rc = -1;
    else {
        mpz_mul(t2, t1, t1);
        mpz_mod(t2, t2, q);             /* Z^-2 */
        mpz_mul(X, X, t2);
        mpz_mod(X, X, q);
        mpz_mul(t2, t2, t1);
        mpz_mul(Y, Y, t2);
        mpz_mod(Y, Y, q);
        export_be(out_buf, width, X);
        export_be(out_buf + width, width, Y);
    }
    mpz_clears(q, x, y, k, X, Y, Z, t1, t2, t3, t4, t5, NULL);
    return rc;
}

/* -- GF(q^2) exponentiation ------------------------------------------------ */

int spx_fq2_pow(const uint8_t *mod_buf, size_t width, const uint8_t *a_buf,
                const uint8_t *b_buf, const uint8_t *exp_buf, size_t exp_width,
                uint8_t *out_buf) {
    mpz_t q, ba, bb, ra, rb, e, t1, t2, na, nb;
    long bit;
    mpz_inits(q, ba, bb, ra, rb, e, t1, t2, na, nb, NULL);
    import_be(q, mod_buf, width);
    import_be(ba, a_buf, width);
    import_be(bb, b_buf, width);
    import_be(e, exp_buf, exp_width);
    mpz_set_ui(ra, 1);
    mpz_set_ui(rb, 0);
    if (mpz_sgn(e) != 0) {
        for (bit = (long)mpz_sizeinbase(e, 2) - 1; bit >= 0; bit--) {
            fq2_sqr(na, nb, ra, rb, q, t1, t2);
            mpz_swap(ra, na);
            mpz_swap(rb, nb);
            if (mpz_tstbit(e, (mp_bitcnt_t)bit)) {
                fq2_mul(na, nb, ra, rb, ba, bb, q, t1, t2);
                mpz_swap(ra, na);
                mpz_swap(rb, nb);
            }
        }
    }
    export_be(out_buf, width, ra);
    export_be(out_buf + width, width, rb);
    mpz_clears(q, ba, bb, ra, rb, e, t1, t2, na, nb, NULL);
    return 0;
}

/* Simultaneous multi-exponentiation in GF(q^2) (Shamir's trick): one
 * shared squaring chain, multiplying in every base whose exponent has
 * the current bit set.  Bases are (a, b) pairs laid out consecutively;
 * exponents are exp_width-byte big-endian values, one per base. */
int spx_fq2_multi_exp(const uint8_t *mod_buf, size_t width, size_t count,
                      const uint8_t *bases_buf, const uint8_t *exps_buf,
                      size_t exp_width, uint8_t *out_buf) {
    mpz_t q, ra, rb, t1, t2, na, nb;
    mpz_t *ba, *bb, *es;
    size_t i, maxbits = 0;
    long bit;

    ba = malloc(count * sizeof(mpz_t));
    bb = malloc(count * sizeof(mpz_t));
    es = malloc(count * sizeof(mpz_t));
    if (!ba || !bb || !es) {
        free(ba);
        free(bb);
        free(es);
        return -2;
    }
    mpz_inits(q, ra, rb, t1, t2, na, nb, NULL);
    import_be(q, mod_buf, width);
    for (i = 0; i < count; i++) {
        mpz_inits(ba[i], bb[i], es[i], NULL);
        import_be(ba[i], bases_buf + i * 2 * width, width);
        import_be(bb[i], bases_buf + i * 2 * width + width, width);
        import_be(es[i], exps_buf + i * exp_width, exp_width);
        if (mpz_sgn(es[i]) != 0 && mpz_sizeinbase(es[i], 2) > maxbits)
            maxbits = mpz_sizeinbase(es[i], 2);
    }
    mpz_set_ui(ra, 1);
    mpz_set_ui(rb, 0);
    for (bit = (long)maxbits - 1; bit >= 0; bit--) {
        fq2_sqr(na, nb, ra, rb, q, t1, t2);
        mpz_swap(ra, na);
        mpz_swap(rb, nb);
        for (i = 0; i < count; i++) {
            if (mpz_tstbit(es[i], (mp_bitcnt_t)bit)) {
                fq2_mul(na, nb, ra, rb, ba[i], bb[i], q, t1, t2);
                mpz_swap(ra, na);
                mpz_swap(rb, nb);
            }
        }
    }
    export_be(out_buf, width, ra);
    export_be(out_buf + width, width, rb);
    for (i = 0; i < count; i++)
        mpz_clears(ba[i], bb[i], es[i], NULL);
    free(ba);
    free(bb);
    free(es);
    mpz_clears(q, ra, rb, t1, t2, na, nb, NULL);
    return 0;
}

/* -- merged Miller loop ---------------------------------------------------- */

/* Per-state mutable data, mirroring the pure tier's
 * [tx, ty, px, py, xq, yq, group, done] rows exactly. */
typedef struct {
    mpz_t tx, ty, px, py, xq, yq;
    int32_t group;
    int done;
} miller_state;

/* Fold the line through T with this slope, evaluated at phi(Q), into the
 * state's group line product, then move T to the line's third point
 * reflected: 2T when other_x is T's own x, T + P when it is P's. */
static void miller_apply(miller_state *s, const mpz_t slope,
                         const mpz_t other_x, mpz_t *line_a, mpz_t *line_b,
                         int *line_has, const mpz_t q, mpz_t t1, mpz_t t2,
                         mpz_t t3, mpz_t na, mpz_t nb) {
    size_t g = (size_t)s->group;

    /* line value at phi(Q): (-(slope*(xq - tx) + ty)) + yq*i */
    mpz_sub(t1, s->xq, s->tx);
    mpz_mul(t1, t1, slope);
    mpz_add(t1, t1, s->ty);
    mpz_neg(t1, t1);
    mpz_mod(t1, t1, q);
    if (line_has[g]) {
        fq2_mul(na, nb, line_a[g], line_b[g], t1, s->yq, q, t2, t3);
        mpz_swap(line_a[g], na);
        mpz_swap(line_b[g], nb);
    } else {
        mpz_set(line_a[g], t1);
        mpz_mod(line_b[g], s->yq, q);
        line_has[g] = 1;
    }
    mpz_mul(t1, slope, slope);
    mpz_sub(t1, t1, s->tx);
    mpz_sub(t1, t1, other_x);                /* x3 = slope^2 - tx - x' */
    mpz_mod(t1, t1, q);
    mpz_sub(t2, s->tx, t1);
    mpz_mul(t2, t2, slope);
    mpz_sub(t2, t2, s->ty);
    mpz_mod(s->ty, t2, q);
    mpz_set(s->tx, t1);
}

/* Run every Miller loop of a pair_product in lockstep, one accumulator
 * per exponent group — the compiled twin of Pairing._merged_miller.
 *
 * states_buf holds n_states rows of six width-byte values
 * (tx, ty, px, py, xq, yq); group_of maps each state to its group.
 * r_bits is the binary expansion of the group order as an ASCII
 * '0'/'1' string; the loop walks r_bits[1:], exactly like the pure
 * tier.  out_buf receives n_groups (a, b) accumulator pairs.
 *
 * The slopes are affine, so every step needs one inverse per live
 * state.  Like the pure tier, each doubling and each addition step
 * inverts all of its slope denominators together with Montgomery's
 * trick (batch_invert): one mpz_invert plus 3(n-1) multiplications,
 * where an mpz_invert costs far more than a multiplication.  The slopes
 * are the same field elements either way, so the accumulators equal the
 * pure tier's.  A denominator with no inverse returns -1.  Vertical
 * chords in the addition step (T == -P) mark the state done, matching
 * the reference. */
int spx_miller_merged(const uint8_t *mod_buf, size_t width,
                      const char *r_bits, const uint8_t *states_buf,
                      const int32_t *group_of, size_t n_states,
                      size_t n_groups, uint8_t *out_buf) {
    mpz_t q, slope, inv, t1, t2, t3, na, nb;
    mpz_t *acc_a, *acc_b, *line_a, *line_b, *den, *prefix;
    size_t *live;
    int *line_has;
    miller_state *st;
    size_t i, j, g, n_live, bitlen;
    size_t bi;
    int rc = 0;

    st = malloc(n_states * sizeof(miller_state));
    den = malloc(n_states * sizeof(mpz_t));
    prefix = malloc(n_states * sizeof(mpz_t));
    live = malloc(n_states * sizeof(size_t));
    acc_a = malloc(n_groups * sizeof(mpz_t));
    acc_b = malloc(n_groups * sizeof(mpz_t));
    line_a = malloc(n_groups * sizeof(mpz_t));
    line_b = malloc(n_groups * sizeof(mpz_t));
    line_has = malloc(n_groups * sizeof(int));
    if (!st || !den || !prefix || !live || !acc_a || !acc_b || !line_a
            || !line_b || !line_has) {
        free(st); free(den); free(prefix); free(live);
        free(acc_a); free(acc_b);
        free(line_a); free(line_b); free(line_has);
        return -2;
    }
    mpz_inits(q, slope, inv, t1, t2, t3, na, nb, NULL);
    import_be(q, mod_buf, width);
    for (i = 0; i < n_states; i++) {
        const uint8_t *row = states_buf + i * 6 * width;
        mpz_inits(st[i].tx, st[i].ty, st[i].px, st[i].py, st[i].xq,
                  st[i].yq, den[i], prefix[i], NULL);
        import_be(st[i].tx, row, width);
        import_be(st[i].ty, row + width, width);
        import_be(st[i].px, row + 2 * width, width);
        import_be(st[i].py, row + 3 * width, width);
        import_be(st[i].xq, row + 4 * width, width);
        import_be(st[i].yq, row + 5 * width, width);
        st[i].group = group_of[i];
        st[i].done = 0;
    }
    for (g = 0; g < n_groups; g++) {
        mpz_inits(acc_a[g], acc_b[g], line_a[g], line_b[g], NULL);
        mpz_set_ui(acc_a[g], 1);
        line_has[g] = 0;
    }

    bitlen = strlen(r_bits);
    for (bi = 1; bi < bitlen; bi++) {
        /* Doubling step for every live state; denominators 2*ty. */
        n_live = 0;
        for (i = 0; i < n_states; i++) {
            if (st[i].done)
                continue;
            mpz_mul_2exp(den[n_live], st[i].ty, 1);
            mpz_mod(den[n_live], den[n_live], q);
            live[n_live++] = i;
        }
        if (batch_invert(den, prefix, n_live, q, inv, t1, t2) != -1) {
            rc = -1; /* odd-order point cannot double to O mid-loop */
            break;
        }
        for (g = 0; g < n_groups; g++)
            line_has[g] = 0;
        for (j = 0; j < n_live; j++) {
            miller_state *s = &st[live[j]];
            mpz_mul(slope, s->tx, s->tx);
            mpz_mul_ui(slope, slope, 3);
            mpz_add_ui(slope, slope, 1);         /* 3*tx^2 + 1 */
            mpz_mul(slope, slope, den[j]);
            mpz_mod(slope, slope, q);
            miller_apply(s, slope, s->tx, line_a, line_b, line_has, q,
                         t1, t2, t3, na, nb);
        }
        for (g = 0; g < n_groups; g++) {
            fq2_sqr(na, nb, acc_a[g], acc_b[g], q, t1, t2);
            mpz_swap(acc_a[g], na);
            mpz_swap(acc_b[g], nb);
            if (line_has[g]) {
                fq2_mul(na, nb, acc_a[g], acc_b[g], line_a[g], line_b[g], q,
                        t1, t2);
                mpz_swap(acc_a[g], na);
                mpz_swap(acc_b[g], nb);
            }
        }

        if (r_bits[bi] != '1')
            continue;

        /* Addition step; denominators 2*ty for a tangent (T == P) and
         * px - tx for a chord. */
        n_live = 0;
        for (i = 0; i < n_states; i++) {
            miller_state *s = &st[i];
            if (s->done)
                continue;
            if (mpz_cmp(s->tx, s->px) == 0) {
                mpz_add(t1, s->ty, s->py);
                mpz_mod(t1, t1, q);
                if (mpz_sgn(t1) == 0) {
                    /* T == -P: vertical chord, erased by the final
                     * exponentiation; T becomes O (loop-end only). */
                    s->done = 1;
                    continue;
                }
                mpz_mul_2exp(den[n_live], s->ty, 1);
            } else {
                mpz_sub(den[n_live], s->px, s->tx);
            }
            mpz_mod(den[n_live], den[n_live], q);
            live[n_live++] = i;
        }
        if (batch_invert(den, prefix, n_live, q, inv, t1, t2) != -1) {
            rc = -1;
            break;
        }
        for (g = 0; g < n_groups; g++)
            line_has[g] = 0;
        for (j = 0; j < n_live; j++) {
            miller_state *s = &st[live[j]];
            if (mpz_cmp(s->tx, s->px) == 0) {
                mpz_mul(slope, s->tx, s->tx);
                mpz_mul_ui(slope, slope, 3);
                mpz_add_ui(slope, slope, 1);
            } else {
                mpz_sub(slope, s->py, s->ty);
            }
            mpz_mul(slope, slope, den[j]);
            mpz_mod(slope, slope, q);
            miller_apply(s, slope, s->px, line_a, line_b, line_has, q,
                         t1, t2, t3, na, nb);
        }
        for (g = 0; g < n_groups; g++) {
            if (line_has[g]) {
                fq2_mul(na, nb, acc_a[g], acc_b[g], line_a[g], line_b[g], q,
                        t1, t2);
                mpz_swap(acc_a[g], na);
                mpz_swap(acc_b[g], nb);
            }
        }
    }
    if (rc == 0) {
        for (g = 0; g < n_groups; g++) {
            export_be(out_buf + g * 2 * width, width, acc_a[g]);
            export_be(out_buf + g * 2 * width + width, width, acc_b[g]);
        }
    }
    for (i = 0; i < n_states; i++)
        mpz_clears(st[i].tx, st[i].ty, st[i].px, st[i].py, st[i].xq,
                   st[i].yq, den[i], prefix[i], NULL);
    for (g = 0; g < n_groups; g++)
        mpz_clears(acc_a[g], acc_b[g], line_a[g], line_b[g], NULL);
    free(st); free(den); free(prefix); free(live);
    free(acc_a); free(acc_b);
    free(line_a); free(line_b); free(line_has);
    mpz_clears(q, slope, inv, t1, t2, t3, na, nb, NULL);
    return rc;
}

/* -- AES block chains ------------------------------------------------------ */

static uint32_t load_be32(const uint8_t *p) {
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) |
           ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be32(uint8_t *p, uint32_t v) {
    p[0] = (uint8_t)(v >> 24);
    p[1] = (uint8_t)(v >> 16);
    p[2] = (uint8_t)(v >> 8);
    p[3] = (uint8_t)v;
}

/* One block through the T-table rounds of repro.crypto.aes.AES
 * (encrypt_block / decrypt_block), word for word.  rk holds
 * 4 * (rounds + 1) round-key words (the equivalent inverse schedule when
 * decrypting), t the tables T0..T3 back to back (Te or Td), box the
 * S-box of the final round (SBOX or INV_SBOX).  The lookups are indexed
 * by secret state, so this is no more cache-timing constant-time than
 * the pure tier. */
#define AES_COLUMN(t, a, b, c, d)                                         \
    ((t)[(a) >> 24] ^ (t)[256 + (((b) >> 16) & 0xFF)]                     \
     ^ (t)[512 + (((c) >> 8) & 0xFF)] ^ (t)[768 + ((d) & 0xFF)])
#define AES_LAST(box, a, b, c, d)                                         \
    (((uint32_t)(box)[(a) >> 24] << 24)                                   \
     | ((uint32_t)(box)[((b) >> 16) & 0xFF] << 16)                        \
     | ((uint32_t)(box)[((c) >> 8) & 0xFF] << 8) | (uint32_t)(box)[(d) & 0xFF])

static void aes_encrypt_words(uint32_t s[4], const uint32_t *rk, int rounds,
                              const uint32_t *t, const uint8_t *box) {
    uint32_t s0 = s[0] ^ rk[0], s1 = s[1] ^ rk[1], s2 = s[2] ^ rk[2],
             s3 = s[3] ^ rk[3], u0, u1, u2, u3;
    int r;
    for (r = 1; r < rounds; r++) {
        rk += 4;
        u0 = AES_COLUMN(t, s0, s1, s2, s3) ^ rk[0];
        u1 = AES_COLUMN(t, s1, s2, s3, s0) ^ rk[1];
        u2 = AES_COLUMN(t, s2, s3, s0, s1) ^ rk[2];
        u3 = AES_COLUMN(t, s3, s0, s1, s2) ^ rk[3];
        s0 = u0; s1 = u1; s2 = u2; s3 = u3;
    }
    rk += 4;
    s[0] = AES_LAST(box, s0, s1, s2, s3) ^ rk[0];
    s[1] = AES_LAST(box, s1, s2, s3, s0) ^ rk[1];
    s[2] = AES_LAST(box, s2, s3, s0, s1) ^ rk[2];
    s[3] = AES_LAST(box, s3, s0, s1, s2) ^ rk[3];
}

/* The inverse rounds: InvShiftRows walks the columns the other way. */
static void aes_decrypt_words(uint32_t s[4], const uint32_t *rk, int rounds,
                              const uint32_t *t, const uint8_t *box) {
    uint32_t s0 = s[0] ^ rk[0], s1 = s[1] ^ rk[1], s2 = s[2] ^ rk[2],
             s3 = s[3] ^ rk[3], u0, u1, u2, u3;
    int r;
    for (r = 1; r < rounds; r++) {
        rk += 4;
        u0 = AES_COLUMN(t, s0, s3, s2, s1) ^ rk[0];
        u1 = AES_COLUMN(t, s1, s0, s3, s2) ^ rk[1];
        u2 = AES_COLUMN(t, s2, s1, s0, s3) ^ rk[2];
        u3 = AES_COLUMN(t, s3, s2, s1, s0) ^ rk[3];
        s0 = u0; s1 = u1; s2 = u2; s3 = u3;
    }
    rk += 4;
    s[0] = AES_LAST(box, s0, s3, s2, s1) ^ rk[0];
    s[1] = AES_LAST(box, s1, s0, s3, s2) ^ rk[1];
    s[2] = AES_LAST(box, s2, s1, s0, s3) ^ rk[2];
    s[3] = AES_LAST(box, s3, s2, s1, s0) ^ rk[3];
}

static int aes_rounds_valid(int rounds) {
    return rounds == 10 || rounds == 12 || rounds == 14;
}

/* CBC-encrypt n_blocks whole blocks, chaining from the 16-byte iv. */
int spx_aes_cbc_encrypt(const uint32_t *rk, int rounds, const uint32_t *te,
                        const uint8_t *sbox, const uint8_t *iv,
                        const uint8_t *in, size_t n_blocks, uint8_t *out) {
    uint32_t s[4];
    size_t b;
    int i;
    if (!aes_rounds_valid(rounds))
        return -2;
    for (i = 0; i < 4; i++)
        s[i] = load_be32(iv + 4 * i);
    for (b = 0; b < n_blocks; b++, in += 16, out += 16) {
        for (i = 0; i < 4; i++)
            s[i] ^= load_be32(in + 4 * i);
        aes_encrypt_words(s, rk, rounds, te, sbox);
        for (i = 0; i < 4; i++)
            store_be32(out + 4 * i, s[i]);
    }
    return 0;
}

/* CBC-decrypt n_blocks whole blocks (padding stays with the caller). */
int spx_aes_cbc_decrypt(const uint32_t *rk, int rounds, const uint32_t *td,
                        const uint8_t *inv_sbox, const uint8_t *iv,
                        const uint8_t *in, size_t n_blocks, uint8_t *out) {
    uint32_t s[4], previous[4], block;
    size_t b;
    int i;
    if (!aes_rounds_valid(rounds))
        return -2;
    for (i = 0; i < 4; i++)
        previous[i] = load_be32(iv + 4 * i);
    for (b = 0; b < n_blocks; b++, in += 16, out += 16) {
        for (i = 0; i < 4; i++)
            s[i] = load_be32(in + 4 * i);
        aes_decrypt_words(s, rk, rounds, td, inv_sbox);
        for (i = 0; i < 4; i++) {
            block = load_be32(in + 4 * i);
            store_be32(out + 4 * i, s[i] ^ previous[i]);
            previous[i] = block;
        }
    }
    return 0;
}

/* CTR keystream XOR over len bytes (a partial last block is truncated);
 * the 128-bit big-endian counter starts at nonce and wraps mod 2^128. */
int spx_aes_ctr(const uint32_t *rk, int rounds, const uint32_t *te,
                const uint8_t *sbox, const uint8_t *nonce, const uint8_t *in,
                size_t len, uint8_t *out) {
    uint8_t counter[16], stream[16];
    uint32_t s[4];
    size_t offset, n, j;
    int i;
    if (!aes_rounds_valid(rounds))
        return -2;
    memcpy(counter, nonce, 16);
    for (offset = 0; offset < len; offset += 16) {
        for (i = 0; i < 4; i++)
            s[i] = load_be32(counter + 4 * i);
        aes_encrypt_words(s, rk, rounds, te, sbox);
        for (i = 0; i < 4; i++)
            store_be32(stream + 4 * i, s[i]);
        n = len - offset < 16 ? len - offset : 16;
        for (j = 0; j < n; j++)
            out[offset + j] = in[offset + j] ^ stream[j];
        for (i = 15; i >= 0 && ++counter[i] == 0; i--)
            ; /* counter + 1 mod 2^128 */
    }
    return 0;
}
