"""HL011 fixture: borrow escapes (never imported)."""

CACHE = {}
REF_LIST = []


def lend_refs(store, blkno, nblocks):
    return store.read_refs(blkno, nblocks)        # ok: lending chain


class BadHolder:
    def __init__(self, store):
        self.store = store
        self.stash = []

    def bad_keep_on_self(self, blkno):
        refs = self.store.read_refs(blkno, 4)
        self.held = refs                          # finding: self escape

    def bad_container_on_self(self, blkno):
        refs = self.store.read_refs(blkno, 4)
        self.stash.append(refs)                   # finding: self container

    def bad_module_cache(self, blkno):
        refs = self.store.read_refs(blkno, 2)
        CACHE[blkno] = refs                       # finding: module container
        REF_LIST.append(refs)                     # finding: module container

    def bad_mutate_view(self, blkno):
        ref = self.store.read_refs(blkno, 1)[0]
        view = ref.view()
        view[0:4] = b"\x00" * 4                   # finding: view mutation
        ref.buf[0] = 1                            # finding: buf mutation

    def bad_interprocedural(self, blkno):
        refs = lend_refs(self.store, blkno, 2)    # borrow via call graph
        self.cached = refs                        # finding: self escape

    def good_local_use(self, actor, disk, blkno):
        refs = self.store.read_refs(blkno, 4)
        total = sum(r.nbytes for r in refs)       # ok: reads metadata only
        disk.write_refs(actor, blkno, refs)       # ok: handover, not kept
        local = [r.view() for r in refs]          # ok: local container
        return total, len(local)

    def good_copy_then_keep(self, blkno):
        refs = self.store.read_refs(blkno, 4)
        image = b"".join(bytes(r.view()) for r in refs)
        self.image = image                        # ok: a copy, not a borrow
