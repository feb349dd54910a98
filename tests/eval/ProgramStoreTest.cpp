//===- tests/eval/ProgramStoreTest.cpp - Program store tests ------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/ProgramStore.h"

#include "support/Json.h"
#include "wire/Wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace oppsla;

namespace {

ProgramStoreKey testKey() {
  ProgramStoreKey K;
  K.VictimStem = "MiniVGG_cifar_s1";
  K.Label = 3;
  K.MaxIter = 210;
  K.QueryCap = 4096;
  K.Seed = 424242;
  K.Islands = 4;
  K.ExchangeInterval = 25;
  K.TrainPerClass = 16;
  return K;
}

Program testProgram(double Base) {
  Program P;
  for (size_t I = 0; I != P.Conds.size(); ++I) {
    P.Conds[I].Func = static_cast<FuncKind>(I % NumFuncKinds);
    P.Conds[I].Source =
        I % 2 ? PixelSource::Perturbation : PixelSource::Original;
    P.Conds[I].Cmp = I % 2 ? CmpKind::Less : CmpKind::Greater;
    // An awkward threshold that only survives a %.17g round trip.
    P.Conds[I].Threshold = Base + 1.0 / 3.0 + I * 0.1234567890123456789;
  }
  return P;
}

std::vector<StoredProgram> testPortfolio() {
  std::vector<StoredProgram> Portfolio;
  Portfolio.push_back({testProgram(0.1), 12.5, 3, 4});
  Portfolio.push_back({testProgram(0.1), 12.5, 3, 4});
  Portfolio.push_back({testProgram(0.4), 30.0, 4, 4});
  return Portfolio;
}

/// A scratch store rooted under gtest's temp directory, one per case: the
/// cases may run as concurrent processes, which must not remove each
/// other's entries.
class ProgramStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = (std::filesystem::path(::testing::TempDir()) /
            (std::string("program_store_test.") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(Root);
  }
  void TearDown() override { std::filesystem::remove_all(Root); }
  std::string Root;
};

} // namespace

TEST(ProgramStoreKey, CanonicalCoversEveryField) {
  const ProgramStoreKey Base = testKey();
  auto Mutate = [](ProgramStoreKey K, int Field) {
    switch (Field) {
    case 0: K.Dsl += 1; break;
    case 1: K.VictimStem += "x"; break;
    case 2: K.Label += 1; break;
    case 3: K.MaxIter += 1; break;
    case 4: K.Beta += 0.5; break;
    case 5: K.QueryCap += 1; break;
    case 6: K.Seed += 1; break;
    case 7: K.Islands += 1; break;
    case 8: K.ExchangeInterval += 1; break;
    default: K.TrainPerClass += 1; break;
    }
    return K;
  };
  for (int Field = 0; Field != 10; ++Field) {
    const ProgramStoreKey M = Mutate(Base, Field);
    EXPECT_NE(M.canonical(), Base.canonical()) << "field " << Field;
    EXPECT_NE(M.hash(), Base.hash()) << "field " << Field;
  }
  // The key is a pure value: equal fields, equal identity.
  EXPECT_EQ(testKey().canonical(), Base.canonical());
  EXPECT_EQ(testKey().hash(), Base.hash());
}

TEST(ProgramStoreKey, ExchangeIntervalIrrelevantWithoutIslands) {
  // Islands <= 1 never exchanges, so the interval must not fragment the
  // key space for a single chain.
  ProgramStoreKey A = testKey();
  A.Islands = 1;
  A.ExchangeInterval = 25;
  ProgramStoreKey B = A;
  B.ExchangeInterval = 7;
  EXPECT_EQ(A.canonical(), B.canonical());
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(ProgramStoreText, ExactRoundTrip) {
  const Program P = testProgram(0.7);
  Program Q;
  ASSERT_TRUE(programFromStoreText(programToStoreText(P), Q));
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(P.Conds[I].Func, Q.Conds[I].Func);
    EXPECT_EQ(P.Conds[I].Source, Q.Conds[I].Source);
    EXPECT_EQ(P.Conds[I].Cmp, Q.Conds[I].Cmp);
    EXPECT_EQ(P.Conds[I].Threshold, Q.Conds[I].Threshold)
        << "thresholds must round-trip bit-exactly";
  }
}

TEST(ProgramStoreText, RejectsMalformed) {
  Program Q;
  EXPECT_FALSE(programFromStoreText("", Q));
  EXPECT_FALSE(programFromStoreText("0 0 0 0.5\n", Q)) << "too few lines";
  EXPECT_FALSE(
      programFromStoreText("99 0 0 0.5\n0 0 0 1\n0 0 0 1\n0 0 0 1\n", Q))
      << "out-of-range function kind";
}

TEST(SelectFromPortfolio, MinAvgQueriesFirstWins) {
  std::vector<StoredProgram> Portfolio;
  Portfolio.push_back({testProgram(0.1), 20.0, 2, 4});
  Portfolio.push_back({testProgram(0.2), 10.0, 1, 4});
  Portfolio.push_back({testProgram(0.3), 10.0, 3, 4});
  Portfolio.push_back({testProgram(0.4), 0.0, 0, 4}); // never succeeded
  EXPECT_EQ(&selectFromPortfolio(Portfolio), &Portfolio[1])
      << "lowest avg queries among successes, ties to the earliest";
  // Nothing succeeded: fall back to entry 0, the run's own pick.
  std::vector<StoredProgram> AllFailed;
  AllFailed.push_back({testProgram(0.5), 0.0, 0, 4});
  AllFailed.push_back({testProgram(0.6), 0.0, 0, 4});
  EXPECT_EQ(&selectFromPortfolio(AllFailed), &AllFailed[0]);
}

TEST_F(ProgramStoreTest, SaveLoadRoundTrip) {
  ProgramStore Store(Root);
  const ProgramStoreKey K = testKey();
  const auto Saved = testPortfolio();
  ASSERT_TRUE(Store.save(K, Saved));

  std::vector<StoredProgram> Loaded;
  ASSERT_TRUE(Store.load(K, Loaded));
  ASSERT_EQ(Loaded.size(), Saved.size());
  for (size_t I = 0; I != Saved.size(); ++I) {
    EXPECT_EQ(programToStoreText(Loaded[I].P), programToStoreText(Saved[I].P));
    EXPECT_EQ(Loaded[I].AvgQueries, Saved[I].AvgQueries)
        << "stats must round-trip bit-exactly for portfolio stability";
    EXPECT_EQ(Loaded[I].Successes, Saved[I].Successes);
    EXPECT_EQ(Loaded[I].Attacks, Saved[I].Attacks);
  }
}

TEST_F(ProgramStoreTest, MissOnAbsentEntry) {
  ProgramStore Store(Root);
  std::vector<StoredProgram> Loaded;
  EXPECT_FALSE(Store.load(testKey(), Loaded));
}

TEST_F(ProgramStoreTest, CorruptedEntryDegradesToMiss) {
  ProgramStore Store(Root);
  const ProgramStoreKey K = testKey();
  ASSERT_TRUE(Store.save(K, testPortfolio()));

  // Flip one payload byte mid-file; the wire layer's record CRC must
  // reject the whole entry and the store must answer "miss", never a
  // wrong program.
  const std::string Path = Store.entryPath(K);
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.good());
  F.seekg(0, std::ios::end);
  const auto Size = static_cast<std::streamoff>(F.tellg());
  ASSERT_GT(Size, 64);
  F.seekg(Size / 2);
  char C = 0;
  F.read(&C, 1);
  F.seekp(Size / 2);
  C = static_cast<char>(C ^ 0x5a);
  F.write(&C, 1);
  F.close();

  std::vector<StoredProgram> Loaded;
  EXPECT_FALSE(Store.load(K, Loaded));
}

TEST_F(ProgramStoreTest, KeyCollisionDegradesToMiss) {
  // Simulate a 64-bit hash collision: an entry sitting at K2's path but
  // written for K1. The byte-verified canonical key must reject it.
  ProgramStore Store(Root);
  const ProgramStoreKey K1 = testKey();
  ProgramStoreKey K2 = testKey();
  K2.Seed += 1;
  ASSERT_TRUE(Store.save(K1, testPortfolio()));
  std::filesystem::copy_file(Store.entryPath(K1), Store.entryPath(K2));
  std::vector<StoredProgram> Loaded;
  EXPECT_FALSE(Store.load(K2, Loaded));
  EXPECT_TRUE(Store.load(K1, Loaded)) << "the honest entry still hits";
}

TEST_F(ProgramStoreTest, InvalidCountsDegradeToMiss) {
  // Entries with valid CRCs and key but counts save() can never write.
  // Cast blindly to size_t, "successes":-1 would load as 2^64-1 and steer
  // portfolio selection; the store must answer "miss" instead.
  ProgramStore Store(Root);
  const ProgramStoreKey K = testKey();
  std::filesystem::create_directories(Root);
  auto WriteEntry = [&](const std::string &Successes,
                        const std::string &Attacks) {
    std::string Meta = "{\"store_key\":\"";
    json::escape(Meta, K.canonical());
    Meta += "\",\"programs\":[{\"avg_queries\":12.5,\"successes\":" +
            Successes + ",\"attacks\":" + Attacks + "}]}";
    wire::WireBuilder Builder;
    Builder.addJobSpecJson(Meta);
    Builder.addProgram(programToStoreText(testProgram(0.1)));
    std::string Error;
    ASSERT_TRUE(
        wire::writeFileAtomic(Store.entryPath(K), Builder.finish(), Error))
        << Error;
  };

  std::vector<StoredProgram> Loaded;
  WriteEntry("3", "4");
  ASSERT_TRUE(Store.load(K, Loaded)) << "the well-formed entry hits";
  EXPECT_EQ(Loaded[0].Successes, 3u);

  const std::pair<const char *, const char *> Bad[] = {
      {"-1", "4"},    {"3", "-4"},    {"1.5", "4"}, {"3", "4.25"},
      {"1e999", "4"}, {"3", "1e999"}, {"5", "4"}};
  for (const auto &[Successes, Attacks] : Bad) {
    WriteEntry(Successes, Attacks);
    EXPECT_FALSE(Store.load(K, Loaded))
        << "successes=" << Successes << " attacks=" << Attacks;
  }
}
