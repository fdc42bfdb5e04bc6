// lint-invariants fixture (MUST PASS rule 3): the wire decoder only
// touches memory — item decode plus its sink's placement callback, no
// sockets, no round trips. Not compiled — parsed by
// tools/lint_invariants.py --selftest.

unsigned char *
place(unsigned long bytes)
{
    static unsigned char chunk[4096];
    return bytes <= sizeof(chunk) ? chunk : nullptr;
}

template <class Sink>
unsigned long
Decoder<Sink>::segment(const unsigned char *seg, unsigned long len)
{
    unsigned long off = 0;
    while (off < len) {
        unsigned char *dst = sink_.place(16);
        for (int i = 0; i < 16 && off < len; ++i)
            dst[i] = seg[off++];
    }
    return off;
}
