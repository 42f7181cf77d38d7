#include "workloads/kvstore.hh"

#include "base/logging.hh"
#include "sim/simulator.hh"
#include "workloads/zipf.hh"

namespace mclock {
namespace workloads {

KvStore::KvStore(sim::Simulator &sim, KvStoreConfig cfg)
    : sim_(sim), cfg_(cfg)
{
    const std::size_t bytes = cfg_.hashBuckets * sizeof(std::uint64_t);
    buckets_ = sim_.mmap(bytes, /*anon=*/true, "kv-hashtable",
                         cfg_.memcg);
    footprint_ += bytes;
}

Vaddr
KvStore::bucketAddr(std::uint64_t key) const
{
    const std::uint64_t h = fnv1a64(key) % cfg_.hashBuckets;
    return buckets_ + h * sizeof(std::uint64_t);
}

void
KvStore::touchBucket(std::uint64_t key, bool write)
{
    const Vaddr addr = bucketAddr(key);
    if (write)
        sim_.write(addr, sizeof(std::uint64_t));
    else
        sim_.read(addr, sizeof(std::uint64_t));
}

Vaddr
KvStore::allocItem(std::size_t bytes)
{
    // Single size-class recycling, like a memcached slab class: all
    // items in one run have the same value size.
    if (!freeSlots_.empty() && freeSlotBytes_ >= bytes) {
        const Vaddr addr = freeSlots_.back();
        freeSlots_.pop_back();
        return addr;
    }
    if (chunkRemaining_ < bytes) {
        const std::size_t chunk =
            std::max(cfg_.slabChunkBytes, bytes);
        chunkCursor_ = sim_.mmap(chunk, /*anon=*/true, "kv-slab",
                                 cfg_.memcg);
        chunkRemaining_ = chunk;
        footprint_ += chunk;
    }
    const Vaddr addr = chunkCursor_;
    chunkCursor_ += bytes;
    chunkRemaining_ -= bytes;
    return addr;
}

// Each operation issues at most four simulated accesses. The batched
// default queues them into one stream() call — the index_ lookup and
// slab allocation (plain host work plus time-free mmaps) hoist ahead
// of the stream without changing anything the simulator observes.
void
KvStore::put(std::uint64_t key, std::size_t valueBytes)
{
    if (!cfg_.batchAccesses) {
        sim_.compute(cfg_.cpuPerOp);
        const Vaddr bucket = bucketAddr(key);
        sim_.read(bucket, sizeof(std::uint64_t));
        const Item *it = index_.find(key);
        if (it) {
            // Overwrite in place: read header, write value.
            sim_.read(it->addr, cfg_.itemHeaderBytes);
            sim_.write(it->addr + cfg_.itemHeaderBytes,
                       valueBytes);
            return;
        }
        const std::size_t bytes = cfg_.itemHeaderBytes + valueBytes;
        const Vaddr addr = allocItem(bytes);
        freeSlotBytes_ = std::max(freeSlotBytes_, bytes);
        sim_.write(bucket, sizeof(std::uint64_t));  // link into the chain
        sim_.write(addr, bytes);                    // write header + value
        index_.emplace(key, Item{addr, bytes});
        return;
    }

    using MemOp = sim::Simulator::MemOp;
    MemOp ops[4];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    const Vaddr bucket = bucketAddr(key);
    ops[n++] = MemOp::load(bucket, sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    if (it) {
        // Overwrite in place: read header, write value.
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));
        ops[n++] = MemOp::store(
            it->addr + cfg_.itemHeaderBytes,
            static_cast<std::uint32_t>(valueBytes));
    } else {
        const std::size_t bytes = cfg_.itemHeaderBytes + valueBytes;
        const Vaddr addr = allocItem(bytes);
        freeSlotBytes_ = std::max(freeSlotBytes_, bytes);
        // Link into the chain, then write header + value.
        ops[n++] = MemOp::store(bucket, sizeof(std::uint64_t));
        ops[n++] = MemOp::store(addr,
                                static_cast<std::uint32_t>(bytes));
        index_.emplace(key, Item{addr, bytes});
    }
    sim_.stream(ops, n);
}

bool
KvStore::get(std::uint64_t key)
{
    if (!cfg_.batchAccesses) {
        sim_.compute(cfg_.cpuPerOp);
        touchBucket(key, /*write=*/false);
        const Item *it = index_.find(key);
        if (!it)
            return false;
        // Read header (key comparison) then the value.
        sim_.read(it->addr, it->bytes);
        return true;
    }

    using MemOp = sim::Simulator::MemOp;
    MemOp ops[3];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        // Read header (key comparison) then the value.
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(it->bytes));
    }
    sim_.stream(ops, n);
    return hit;
}

bool
KvStore::readModifyWrite(std::uint64_t key)
{
    if (!cfg_.batchAccesses) {
        sim_.compute(cfg_.cpuPerOp);
        touchBucket(key, /*write=*/false);
        const Item *it = index_.find(key);
        if (!it)
            return false;
        sim_.read(it->addr, it->bytes);
        sim_.write(it->addr + cfg_.itemHeaderBytes,
                   it->bytes - cfg_.itemHeaderBytes);
        return true;
    }

    using MemOp = sim::Simulator::MemOp;
    MemOp ops[4];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::load(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::load(
            it->addr,
            static_cast<std::uint32_t>(it->bytes));
        ops[n++] = MemOp::store(
            it->addr + cfg_.itemHeaderBytes,
            static_cast<std::uint32_t>(it->bytes -
                                       cfg_.itemHeaderBytes));
    }
    sim_.stream(ops, n);
    return hit;
}

bool
KvStore::remove(std::uint64_t key)
{
    if (!cfg_.batchAccesses) {
        sim_.compute(cfg_.cpuPerOp);
        touchBucket(key, /*write=*/true);
        const Item *it = index_.find(key);
        if (!it)
            return false;
        sim_.write(it->addr, cfg_.itemHeaderBytes);  // unlink
        freeSlots_.push_back(it->addr);
        index_.erase(key);
        return true;
    }

    using MemOp = sim::Simulator::MemOp;
    MemOp ops[3];
    std::size_t n = 0;
    ops[n++] = MemOp::cpu(cfg_.cpuPerOp);
    ops[n++] = MemOp::store(bucketAddr(key), sizeof(std::uint64_t));
    const Item *it = index_.find(key);
    const bool hit = it != nullptr;
    if (hit) {
        ops[n++] = MemOp::store(
            it->addr,
            static_cast<std::uint32_t>(cfg_.itemHeaderBytes));  // unlink
        freeSlots_.push_back(it->addr);
        index_.erase(key);
    }
    sim_.stream(ops, n);
    return hit;
}

}  // namespace workloads
}  // namespace mclock
