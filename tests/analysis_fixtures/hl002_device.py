"""HL002 fixture: raw device I/O outside the choke points (never imported)."""


def bad_direct_io(fs, actor, daddr):
    image = fs.disk.read(actor, daddr, 16)        # finding: raw read
    fs.disk.write(actor, daddr, image)            # finding: raw write
    device = fs.disk
    device.read(actor, daddr, 1)                  # finding: raw read
    refs = fs.disk.read_refs(actor, daddr, 16)    # finding: raw refs read
    device.writev(actor, daddr, refs)             # finding: raw gather write
    fs.disk.write_refs(actor, daddr, refs)        # finding: raw refs write
    return image


def good_routed_io(fs, actor, daddr):
    data = fs.dev_read(actor, daddr, 16)          # ok: block-map choke point
    refs = fs.dev_read_refs(actor, daddr, 16)     # ok: the same choke point
    fs.dev_writev(actor, daddr, refs)             # ok: the same choke point
    fh = open("/dev/null", "rb")
    fh.read(1)                                    # ok: not a device receiver
    return data
