#include "wasm/memory.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/instance.h"

namespace rr::wasm {
namespace {

std::unique_ptr<LinearMemory> MakeMemory(Limits limits) {
  auto memory = LinearMemory::Create(limits);
  EXPECT_TRUE(memory.ok()) << memory.status();
  return memory.ok() ? std::move(*memory) : nullptr;
}

TEST(LinearMemoryTest, InitialPages) {
  auto mem = MakeMemory({.min_pages = 2});
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->pages(), 2u);
  EXPECT_EQ(mem->byte_size(), 2u * kWasmPageSize);
}

TEST(LinearMemoryTest, GrowReturnsOldSize) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->Grow(3), 1);
  EXPECT_EQ(mem->pages(), 4u);
}

TEST(LinearMemoryTest, GrowRespectsMax) {
  auto mem = MakeMemory({.min_pages = 1, .has_max = true, .max_pages = 2});
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->Grow(1), 1);
  EXPECT_EQ(mem->Grow(1), -1);
  EXPECT_EQ(mem->pages(), 2u);
}

TEST(LinearMemoryTest, DefaultMaxApplied) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  EXPECT_TRUE(mem->limits().has_max);
  EXPECT_EQ(mem->limits().max_pages, kDefaultMaxPages);
}

TEST(LinearMemoryTest, TypedLoadStore) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Store<uint32_t>(16, 0xdeadbeef).ok());
  auto loaded = mem->Load<uint32_t>(16);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 0xdeadbeefu);
}

TEST(LinearMemoryTest, OutOfBoundsLoadTraps) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  EXPECT_FALSE(mem->Load<uint64_t>(kWasmPageSize - 4).ok());
  EXPECT_FALSE(mem->Store<uint8_t>(kWasmPageSize, 1).ok());
}

TEST(LinearMemoryTest, OffsetOverflowCaught) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  EXPECT_FALSE(mem->InBounds(UINT64_MAX - 2, 8));
}

TEST(LinearMemoryTest, HostBulkReadWrite) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  const Bytes data = ToBytes("roadrunner");
  ASSERT_TRUE(mem->Write(100, data).ok());
  Bytes out(data.size());
  ASSERT_TRUE(mem->Read(100, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(mem->host_bytes_written(), data.size());
  EXPECT_EQ(mem->host_bytes_read(), data.size());
}

TEST(LinearMemoryTest, HostReadOutOfBoundsRejected) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  Bytes out(16);
  EXPECT_FALSE(mem->Read(kWasmPageSize - 8, out).ok());
}

TEST(LinearMemoryTest, SliceIsZeroCopyView) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Write(0, AsBytes("abc")).ok());
  auto slice = mem->Slice(0, 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(AsStringView(*slice), "abc");

  auto mut = mem->MutableSlice(0, 3);
  ASSERT_TRUE(mut.ok());
  (*mut)[0] = 'x';
  auto again = mem->Slice(0, 3);
  EXPECT_EQ(AsStringView(*again), "xbc");  // same backing bytes
}

TEST(LinearMemoryTest, CopyAndFill) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Write(0, AsBytes("abcdef")).ok());
  ASSERT_TRUE(mem->Copy(10, 0, 6).ok());
  auto copied = mem->Slice(10, 6);
  EXPECT_EQ(AsStringView(*copied), "abcdef");

  // Overlapping copy must behave like memmove.
  ASSERT_TRUE(mem->Copy(1, 0, 5).ok());
  auto overlapped = mem->Slice(0, 6);
  EXPECT_EQ(AsStringView(*overlapped), "aabcde");

  ASSERT_TRUE(mem->Fill(20, 0x7a, 4).ok());
  auto filled = mem->Slice(20, 4);
  EXPECT_EQ(AsStringView(*filled), "zzzz");

  EXPECT_FALSE(mem->Copy(kWasmPageSize - 2, 0, 6).ok());
  EXPECT_FALSE(mem->Fill(kWasmPageSize - 2, 0, 6).ok());
}

// A {min 0, max 0} memory has no storage at all: zero-length ops at its end
// succeed without touching any, and zero-length ops past it still trap.
TEST(LinearMemoryTest, ZeroLengthOpsOnEmptyMemory) {
  auto mem = MakeMemory({.min_pages = 0, .has_max = true, .max_pages = 0});
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->byte_size(), 0u);
  EXPECT_TRUE(mem->Copy(0, 0, 0).ok());
  EXPECT_TRUE(mem->Fill(0, 0x7a, 0).ok());
  EXPECT_TRUE(mem->Read(0, MutableByteSpan{}).ok());
  EXPECT_TRUE(mem->Write(0, ByteSpan{}).ok());
  EXPECT_TRUE(mem->Slice(0, 0).ok());

  EXPECT_FALSE(mem->Copy(1, 0, 0).ok());
  EXPECT_FALSE(mem->Copy(0, 1, 0).ok());
  EXPECT_FALSE(mem->Fill(1, 0x7a, 0).ok());
  EXPECT_FALSE(mem->Slice(1, 0).ok());
  EXPECT_EQ(mem->Grow(1), -1);
}

TEST(LinearMemoryTest, SliceSurvivesGrow) {
  auto mem = MakeMemory({.min_pages = 1});
  ASSERT_NE(mem, nullptr);
  auto before = mem->MutableSlice(100, 10);
  ASSERT_TRUE(before.ok());
  std::memcpy(before->data(), "roadrunner", 10);

  ASSERT_EQ(mem->Grow(64), 1);
  auto after = mem->Slice(100, 10);
  ASSERT_TRUE(after.ok());
  // Read through the pre-Grow span only once it is known to still point
  // into the memory.
  ASSERT_EQ(after->data(), before->data());
  EXPECT_EQ(AsStringView(*before), "roadrunner");
}

TEST(LinearMemoryTest, UntouchedPagesStayUncommitted) {
  auto mem = MakeMemory({.min_pages = 1024});  // 64 MiB
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Store<uint8_t>(3 * kWasmPageSize + 5, 1).ok());

  auto whole = mem->Slice(0, mem->byte_size());
  ASSERT_TRUE(whole.ok());
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(whole->data()) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(whole->data()) + whole->size();
  std::vector<unsigned char> residency((end - begin + page - 1) / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, residency.data()), 0)
      << std::strerror(errno);
  size_t resident = 0;
  for (const unsigned char r : residency) resident += r & 1;
  // The touched page, or at most one 2 MiB transparent huge page.
  EXPECT_LE(resident * page, size_t{2} << 20) << resident << " pages resident";
}

// The VmFlags of the mapping that holds `addr`, split into its two-letter
// codes, from /proc/self/smaps.
std::vector<std::string> VmFlagsAt(const void* addr) {
  const uintptr_t target = reinterpret_cast<uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long start = 0;
    unsigned long end = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &start, &end) == 2) {
      inside = start <= target && target < end;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      std::vector<std::string> flags;
      std::istringstream codes(line.substr(8));
      for (std::string code; codes >> code;) flags.push_back(code);
      return flags;
    }
  }
  return {};
}

bool HasFlag(const std::vector<std::string>& flags, const std::string& flag) {
  return std::find(flags.begin(), flags.end(), flag) != flags.end();
}

TEST(LinearMemoryTest, GrowAdvisesHugePagesPastTheDeclaredMinimum) {
  if (access("/sys/kernel/mm/transparent_hugepage", F_OK) != 0) {
    GTEST_SKIP() << "kernel without transparent huge pages";
  }
  auto mem = MakeMemory({.min_pages = 32});  // 2 MiB declared
  ASSERT_NE(mem, nullptr);
  auto declared = mem->Slice(0, 1);
  ASSERT_TRUE(declared.ok());
  ASSERT_FALSE(VmFlagsAt(declared->data()).empty()) << "no smaps entry";
  EXPECT_FALSE(HasFlag(VmFlagsAt(declared->data()), "hg"));

  ASSERT_EQ(mem->Grow(64), 32);
  auto grown = mem->Slice(32 * kWasmPageSize, 64 * kWasmPageSize);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(HasFlag(VmFlagsAt(grown->data()), "hg"));
  EXPECT_TRUE(HasFlag(VmFlagsAt(grown->data() + grown->size() - 1), "hg"));
  EXPECT_FALSE(HasFlag(VmFlagsAt(declared->data()), "hg"));
  EXPECT_FALSE(
      HasFlag(VmFlagsAt(declared->data() + 32 * kWasmPageSize - 1), "hg"));
}

TEST(LinearMemoryTest, GrownPagesReadZero) {
  auto mem = MakeMemory({.min_pages = 1, .has_max = true, .max_pages = 4});
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Fill(0, 0xff, kWasmPageSize).ok());
  ASSERT_EQ(mem->Grow(3), 1);

  Bytes grown(3 * kWasmPageSize, 0xaa);
  ASSERT_TRUE(mem->Read(kWasmPageSize, grown).ok());
  EXPECT_EQ(grown, Bytes(3 * kWasmPageSize, 0));
  auto last_old = mem->Load<uint8_t>(kWasmPageSize - 1);
  ASSERT_TRUE(last_old.ok());
  EXPECT_EQ(*last_old, 0xff);
}

TEST(LinearMemoryTest, FailedGrowLeavesMemoryIntact) {
  auto mem = MakeMemory({.min_pages = 1, .has_max = true, .max_pages = 2});
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(mem->Write(0, AsBytes("kept")).ok());

  EXPECT_EQ(mem->Grow(2), -1);
  EXPECT_EQ(mem->pages(), 1u);
  EXPECT_FALSE(mem->Load<uint8_t>(kWasmPageSize).ok());
  auto kept = mem->Slice(0, 4);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(AsStringView(*kept), "kept");
  EXPECT_EQ(mem->Grow(1), 1);
}

// Caps this process's `resource` at what it uses now (the `field` line of
// /proc/self/status, in kB) plus `headroom` bytes.
bool CapAtCurrentUsePlus(int resource, const std::string& field,
                         uint64_t headroom) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const uint64_t used = std::strtoull(line.c_str() + field.size(), nullptr, 10) << 10;
    rlimit cap{};
    if (getrlimit(resource, &cap) != 0) return false;
    cap.rlim_cur = std::min<uint64_t>(used + headroom, cap.rlim_max);
    return setrlimit(resource, &cap) == 0;
  }
  return false;
}

// Runs in a death-test child, whose limits the caller never sees. Returns 0
// when the host's refusals came back as typed errors that left no damage.
int HostRefusalChild() {
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "%s\n", what);
    return 1;
  };
  auto grown =
      LinearMemory::Create({.min_pages = 1, .has_max = true, .max_pages = 1024});
  if (!grown.ok() || !(*grown)->Write(0, AsBytes("kept")).ok()) {
    return fail("set-up failed");
  }
  LinearMemory& mem = **grown;

  // RLIMIT_DATA counts writable private pages, so mprotect refuses to open
  // 32 MiB more.
  if (!CapAtCurrentUsePlus(RLIMIT_DATA, "VmData:", 8 << 20)) return fail("RLIMIT_DATA");
  if (mem.Grow(512) != -1) return fail("Grow past RLIMIT_DATA succeeded");
  if (mem.pages() != 1 || mem.Load<uint8_t>(kWasmPageSize).ok()) {
    return fail("a refused Grow changed the size");
  }
  auto kept = mem.Slice(0, 4);
  if (!kept.ok() || AsStringView(*kept) != "kept") return fail("contents lost");
  if (mem.Grow(1) != 1) return fail("Grow within the limit refused");

  // RLIMIT_AS counts reserved address space, so a 2 GiB reservation fails.
  if (!CapAtCurrentUsePlus(RLIMIT_AS, "VmSize:", 64 << 20)) return fail("RLIMIT_AS");
  auto refused = LinearMemory::Create({.min_pages = 1});
  if (refused.ok() || refused.status().code() != StatusCode::kResourceExhausted) {
    return fail("unreservable Create was not ResourceExhausted");
  }
  ModuleBuilder builder;
  builder.SetMemory({.min_pages = 1});
  auto module = DecodeModule(builder.Encode());
  if (!module.ok()) return fail("decode failed");
  auto instance = Instance::Instantiate(std::move(*module), ImportResolver{});
  if (instance.ok() || instance.status().code() != StatusCode::kResourceExhausted) {
    return fail("unreservable Instantiate was not ResourceExhausted");
  }
  return 0;
}

TEST(LinearMemoryTest, HostRefusalsAreTypedNotFatal) {
  // Re-executes the binary for the child, so no other test's threads are
  // forked along.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::_Exit(HostRefusalChild()), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace rr::wasm
