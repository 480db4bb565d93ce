/* CRC-32 (IEEE 802.3, the zlib polynomial) for the job journal
 * (Serve.Journal.crc32), sliced by 8: eight 256-entry tables let each
 * step fold eight input bytes with eight independent lookups instead
 * of eight dependent ones.  Tables are built once, when the OCaml
 * module initialises, before any domain can call the checksum.
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static uint32_t crc_tables[8][256];

CAMLprim value cas_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (uint32_t n = 0; n < 256; n++)
    for (int t = 1; t < 8; t++)
      crc_tables[t][n] =
          (crc_tables[t - 1][n] >> 8) ^ crc_tables[0][crc_tables[t - 1][n] & 0xFF];
  return Val_unit;
}

static uint32_t crc32_bytes(const unsigned char *p, size_t len)
{
  uint32_t c = 0xFFFFFFFFu;
  while (len > 0 && ((uintptr_t)p & 7) != 0) {
    c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    len--;
  }
  while (len >= 8) {
    uint32_t lo, hi;
    memcpy(&lo, p, 4);
    memcpy(&hi, p + 4, 4);
    /* little-endian byte order, as the tables assume */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    lo = __builtin_bswap32(lo);
    hi = __builtin_bswap32(hi);
#endif
    lo ^= c;
    c = crc_tables[7][lo & 0xFF] ^ crc_tables[6][(lo >> 8) & 0xFF] ^
        crc_tables[5][(lo >> 16) & 0xFF] ^ crc_tables[4][lo >> 24] ^
        crc_tables[3][hi & 0xFF] ^ crc_tables[2][(hi >> 8) & 0xFF] ^
        crc_tables[1][(hi >> 16) & 0xFF] ^ crc_tables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    len--;
  }
  return c ^ 0xFFFFFFFFu;
}

/* [s.[off .. off+len-1]]; the OCaml side checks the bounds. */
intnat cas_crc32_sub_untagged(value s, intnat off, intnat len)
{
  return (intnat)crc32_bytes((const unsigned char *)String_val(s) + off,
                             (size_t)len);
}

CAMLprim value cas_crc32_sub(value s, value off, value len)
{
  return Val_long(cas_crc32_sub_untagged(s, Long_val(off), Long_val(len)));
}
