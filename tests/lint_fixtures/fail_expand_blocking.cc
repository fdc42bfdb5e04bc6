// lint-invariants fixture (MUST FAIL rule 3): the wire decoder reaches
// a blocking socket write through its sink's placement callback — it
// would stall the thread that commits the stream's segments. Not
// compiled — parsed by tools/lint_invariants.py --selftest.

void
sendFully(int fd, const unsigned char *buf, unsigned long len)
{
    while (len) {
        long n = ::send(fd, buf, len, 0);
        buf += n;
        len -= static_cast<unsigned long>(n);
    }
}

unsigned char *
place(unsigned long bytes)
{
    static unsigned char chunk[4096];
    unsigned char frame[8] = {};
    sendFully(3, frame, sizeof(frame)); // blocks mid-decode
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
