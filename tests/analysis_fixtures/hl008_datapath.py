"""HL008 fixture: per-block data-path copies (never imported)."""


def bad_per_block_loops(actor, disk, store, nblocks, blkno, datas):
    out = []
    for i in range(nblocks):
        out.append(disk.read(actor, blkno + i, 1))        # finding
    for i in range(nblocks):
        store.write(blkno + i, datas[i])                  # finding
    for i in range(0, nblocks, 4):
        if store.is_written(blkno + i):                   # finding
            out.append(store.read_refs(blkno + i, 1))     # finding
    return out


def bad_store_internals(fs, store):
    n = len(store._blocks)                                # finding
    runs = fs.disk.store._extents                         # finding
    starts = store._starts                                # finding
    return n, runs, starts


def good_vectored_and_unrelated(actor, disk, store, table, nblocks, blkno):
    refs = disk.read_refs(actor, blkno, nblocks)          # ok: one call
    disk.write_refs(actor, blkno, refs)                   # ok: one call
    image = store.read(blkno, nblocks)                    # ok: not in a loop
    for i in range(nblocks):
        table.read(i)                                     # ok: not a store
    for row in table.rows:
        store.write(blkno, image)                         # ok: not range()
    for _ in range(3):
        disk.write_refs(actor, blkno, refs)               # ok: whole image,
        # the loop variable never indexes the transfer (per-replica shape)
    blocks = table._blocks                                # ok: not a store
    return refs, blocks


def bad_ref_per_iteration(actor, disk, spans, image):
    refs = []
    for start, nbytes in spans:
        refs.append(ExtentRef(image, start, nbytes))      # finding
        disk.writev(actor, start, [image])
    return refs


def good_ref_batches(actor, disk, store, refs, image, spans, blkno):
    observed = [ExtentRef(r.view(), 0, r.nbytes) for r in refs]  # ok: comp
    for seg in spans:
        parts = [ExtentRef(image, s, 64) for s in seg]    # ok: batched comp
        disk.write_refs(actor, blkno, parts)              # ok: one call
    pos = 0
    while pos < len(spans):  # ok: one accumulated region per pass (spill)
        store.write_refs(blkno, [ExtentRef(image, pos, 64)])
        pos += 1
    out = []
    for start, nbytes in spans:
        out.append(ExtentRef(image, start, nbytes))       # ok: no block I/O
    return observed, out


class BadReceivers:
    def per_block(self, a, base, b, idx, n):
        for i in range(n):
            self.driver.read_refs(a, base + i, 1)                # finding
        for i in range(n):
            self.jukebox.drives[idx].read_refs(a, b + i, 1)      # finding
