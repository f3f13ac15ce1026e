// The NDJSON protocol layer: request routing, the typed-error envelope
// (stable ErrorCode names on the wire, never message parsing), graph-key
// round trips, and byte-identical responses between a batched and a
// serial engine for the same requests.
#include <gtest/gtest.h>

#include <string>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "serve/protocol.hpp"

namespace sgl::serve {
namespace {

std::string error_code_of(const std::string& response) {
  const JsonValue v = json_parse(response);
  if (v.find("ok") == nullptr || v.find("ok")->as_bool()) return "";
  return v.find("error")->find("code")->as_string();
}

TEST(ServeProtocol, GraphKeyRoundTripsThroughJson) {
  const graph::Graph g = graph::make_grid2d(13, 9).graph;
  const graph::GraphKey key = graph::graph_key(g);
  const graph::GraphKey back = graph_key_from_json(graph_key_to_json(key));
  EXPECT_EQ(back, key);  // exact, including both 64-bit fingerprints
}

TEST(ServeProtocol, LoadGraphThenResistance) {
  ServeEngine engine;
  const ProtocolResult loaded = handle_request(
      engine,
      R"({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,2.0]],"id":7})");
  const JsonValue v = json_parse(loaded.response);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("op")->as_string(), "load_graph");
  EXPECT_EQ(v.find("id")->as_number(), 7.0);
  EXPECT_EQ(v.find("num_edges")->as_number(), 2.0);

  const ProtocolResult r =
      handle_request(engine, R"({"op":"resistance","s":0,"t":2})");
  const JsonValue rv = json_parse(r.response);
  ASSERT_TRUE(rv.find("ok")->as_bool());
  // Series resistors: 1/1 + 1/2 = 1.5 (path graph 0—1—2), up to solver
  // rounding.
  EXPECT_NEAR(rv.find("value")->as_number(), 1.5, 1e-12);
}

TEST(ServeProtocol, ErrorsCarryStableCodesAndEchoId) {
  ServeEngine engine;
  EXPECT_EQ(error_code_of(handle_request(engine, "not json").response),
            "parse-error");
  EXPECT_EQ(error_code_of(handle_request(engine, R"({"no_op":1})").response),
            "bad-request");
  EXPECT_EQ(
      error_code_of(handle_request(engine, R"({"op":"frobnicate"})").response),
      "unknown-operation");
  EXPECT_EQ(
      error_code_of(
          handle_request(engine, R"({"op":"resistance","s":0,"t":1})").response),
      "no-active-graph");
  const ProtocolResult disconnected = handle_request(
      engine,
      R"({"op":"load_graph","num_nodes":4,"edges":[[0,1],[2,3]],"id":"x9"})");
  EXPECT_EQ(error_code_of(disconnected.response), "graph-not-connected");
  EXPECT_EQ(json_parse(disconnected.response).find("id")->as_string(), "x9");
}

TEST(ServeProtocol, BadRequestFieldsAreTyped) {
  ServeEngine engine;
  EXPECT_EQ(error_code_of(
                handle_request(engine, R"({"op":"resistance","s":0})").response),
            "bad-request");  // missing t
  EXPECT_EQ(
      error_code_of(
          handle_request(engine, R"({"op":"resistance","s":0.5,"t":1})")
              .response),
      "bad-request");  // non-integral node id
  EXPECT_EQ(error_code_of(
                handle_request(
                    engine,
                    R"({"op":"load_graph","num_nodes":2,"edges":[[0,1,-1]]})")
                    .response),
            "bad-request");  // non-positive weight
  EXPECT_EQ(
      error_code_of(
          handle_request(engine, R"({"op":"activate","key":{"num_nodes":1}})")
              .response),
      "bad-request");  // malformed key
}

std::string error_message_of(const std::string& response) {
  return json_parse(response).find("error")->find("message")->as_string();
}

TEST(ServeProtocol, IndexFieldsOutsideTheIndexRangeAreBadRequests) {
  // Integral doubles beyond the 32-bit node index are named and refused
  // at the boundary, never cast (a wrapped cast reads back as
  // -2147483648 and is undefined behaviour).
  ServeEngine engine;
  ASSERT_EQ(error_code_of(handle_request(
                engine, R"({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]]})")
                              .response),
            "");
  const struct {
    const char* request;
    const char* field;
  } cases[] = {
      {R"({"op":"resistance","s":3e9,"t":1})", "'s'"},
      {R"({"op":"resistance","s":0,"t":-3e9})", "'t'"},
      {R"({"op":"resistance_batch","pairs":[[0,1],[4294967297,2]]})",
       "'pair endpoint'"},
      {R"({"op":"load_graph","num_nodes":5e9,"edges":[]})", "'num_nodes'"},
      {R"({"op":"load_graph","num_nodes":3,"edges":[[0,2147483648]]})",
       "'edge endpoint'"},
      {R"({"op":"learn_synthetic","graph":"grid2d","nx":3e9,"ny":4})", "'nx'"},
      {R"({"op":"learn_synthetic","graph":"grid2d","nx":4,"ny":4,"measurements":-3e9})",
       "'measurements'"},
  };
  for (const auto& c : cases) {
    const std::string response = handle_request(engine, c.request).response;
    EXPECT_EQ(error_code_of(response), "bad-request") << c.request;
    const std::string message = error_message_of(response);
    EXPECT_NE(message.find(std::string("field ") + c.field + " is out of range"),
              std::string::npos)
        << c.request << " -> " << message;
    EXPECT_EQ(message.find("-2147483648"), std::string::npos) << message;
  }
  // The largest Index is still a valid (if out-of-graph) node id.
  EXPECT_EQ(error_code_of(handle_request(
                engine, R"({"op":"resistance","s":0,"t":2147483647})")
                              .response),
            "bad-request");
}

TEST(ServeProtocol, LoadGraphLinesKeepTheirResponseBytes) {
  // load_graph reads its edge list flat rather than as a JsonValue tree
  // (serve::TupleCapture). Well-formed and malformed lines alike must
  // answer byte for byte as the tree-walking handler did: wrong arity,
  // non-numeric or fractional endpoints, out-of-range endpoints,
  // self-loops, zero or negative weights, truncated arrays, odd
  // whitespace and duplicate members. The expected bytes were recorded
  // from that handler. One engine serves the lines in order.
  const struct {
    const char* request;
    const char* response;
  } cases[] = {
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,2.5]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f2db913386ec6e7c"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1,1,1]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[5]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,"1"]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' must be a number"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[["a",1]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' must be a number"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1.5]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' must be an integer"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0.5,1]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' must be an integer"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,3]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge (0, 3) is out of range for 3 nodes"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[-1,2]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge (-1, 2) is out of range for 3 nodes"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,1]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge (1, 1) is out of range for 3 nodes"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1,0]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge weights must be positive"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1,-2]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge weights must be positive"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2])j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: unexpected end of input at offset 53"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2)j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: unexpected end of input at offset 52"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,)j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: unexpected end of input at offset 51"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: invalid number at offset 54"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1] [1,2]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: expected ']' at offset 48"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1e400]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: invalid number at offset 45"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,3000000000]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' is out of range (3000000000)"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1e16]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edge endpoint' must be an integer"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,3]],"edges":[[0,2]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f2b2c93386c9c890"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"edges":[[0,1],[1,2]],"num_nodes":3,"op":"load_graph","id":7})j",
       R"j({"ok":true,"op":"load_graph","id":7,"key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","edges":[[0,1],[1,2]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"missing field 'num_nodes'"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":{"a":1}})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"field 'edges' must be an array"}})j"},
      {R"j({"op":"load_graph","num_nodes":3})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"missing field 'edges'"}})j"},
      {R"j({"op":"load_graph","num_nodes":0,"edges":[]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"'num_nodes' must be positive"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"graph-not-connected","message":"load_graph: graph is not connected (L⁺ semantics need one component)"}})j"},
      {R"j({"op":"load_graph","num_nodes":4,"edges":[[0,1],[2,3]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"graph-not-connected","message":"load_graph: graph is not connected (L⁺ semantics need one component)"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[ [ 0 , 1 , 2 ] , [1,2] ]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"aba3693428bb8e7c"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,-0.0]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"edge weights must be positive"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[-0,1],[1,2]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]],"id":"x"})j",
       R"j({"ok":true,"op":"load_graph","id":"x","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]]} trailing)j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: trailing characters at offset 56"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[00,1],[1,2]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[+0,1],[1,2]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: invalid number at offset 43"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,1e-400]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: invalid number at offset 53"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],{"a":1}]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,3,4]]})j",
       R"j({"ok":false,"op":"load_graph","error":{"code":"bad-request","message":"each edge must be [s, t] or [s, t, weight]"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,nan]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: invalid literal at offset 53"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,inf]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: non-finite number at offset 53"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,-inf]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: non-finite number at offset 53"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":	[	[0,1]	,[1,2] ]	})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]],"x":{"edges":[[9,9]]}})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2,5]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f2a5b13386bf156c"},"num_nodes":3,"num_edges":2})j"},
      {R"j([{"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]]}])j",
       R"j({"ok":false,"error":{"code":"bad-request","message":"request must be a JSON object"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]])j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: unexpected end of input at offset 54"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]],)j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: unexpected end of input at offset 55"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]],"num_nodes":4})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":2,"endpoints":"17c961808ae1ea1","weights":"f077e83384e4cf25"},"num_nodes":3,"num_edges":2})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[1,2]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"98929a8b00135ae2","weights":"c06269a12eb3f457"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[0,1,1e308]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"21b973e7e0cf827f"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[0,1,4.9e-324]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"1a875d8dbf1180e5"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[0,1,1E2]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"fcbacc84b522c345"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[0,1,.5]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"fdac7d84b5f072a9"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2],[0,1,5.]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"fbb59e84b4454970"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[2,1],[0,1,0x10]]})j",
       R"j({"ok":false,"error":{"code":"parse-error","message":"json: expected ']' at offset 60"}})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[2,1],[0,1]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"fde27d84b61e0219"},"num_nodes":3,"num_edges":3})j"},
      {R"j({"op":"load_graph","num_nodes":3,"edges":[[0,1],[2,1],[-0.0,1]]})j",
       R"j({"ok":true,"op":"load_graph","key":{"num_nodes":3,"num_edges":3,"endpoints":"8aa05b37f25a94c0","weights":"fde27d84b61e0219"},"num_nodes":3,"num_edges":3})j"},
  };
  ServeEngine engine;
  for (const auto& c : cases) {
    EXPECT_EQ(handle_request(engine, c.request).response, c.response)
        << c.request;
  }
}

TEST(ServeProtocol, StatsReportSymbolicReuses) {
  // A weight variant of a cached graph fills on the cached analysis.
  ServeEngine engine;
  for (const char* load :
       {R"({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]]})",
        R"({"op":"load_graph","num_nodes":3,"edges":[[0,1,2],[1,2]]})"}) {
    ASSERT_EQ(error_code_of(handle_request(engine, load).response), "");
    ASSERT_EQ(error_code_of(handle_request(
                  engine, R"({"op":"resistance","s":0,"t":2})")
                                .response),
              "");
  }
  const JsonValue stats =
      json_parse(handle_request(engine, R"({"op":"stats"})").response);
  EXPECT_EQ(stats.find("cache_misses")->as_number(), 2);
  EXPECT_EQ(stats.find("symbolic_reuses")->as_number(), 1);
}

TEST(ServeProtocol, SeedsBeyondTheIndexRangeStayDistinct) {
  // The seed is a 64-bit value, not a node index: two large seeds learn
  // from different measurements.
  ServeEngine engine;
  const auto key_for = [&](const char* seed) {
    const JsonValue v = json_parse(
        handle_request(engine, std::string(R"({"op":"learn_synthetic",)"
                                           R"("graph":"grid2d","nx":6,"ny":6,)"
                                           R"("measurements":20,"seed":)") +
                                   seed + "}")
            .response);
    EXPECT_TRUE(v.find("ok")->as_bool());
    return json_serialize(*v.find("key"));
  };
  EXPECT_NE(key_for("3000000000"), key_for("3000000001"));
}

TEST(ServeProtocol, OversizedSyntheticLearnIsRefusedBeforeAllocating) {
  ServeEngine engine;
  for (const char* request : {
           // 10¹⁰ nodes: the int32 product nx * ny would wrap.
           R"({"op":"learn_synthetic","graph":"grid2d","nx":100000,"ny":100000})",
           R"({"op":"learn_synthetic","graph":"tri_mesh","nx":100000,"ny":100000})",
           // 2049 x 2048 nodes: one row above the node bound.
           R"({"op":"learn_synthetic","graph":"grid2d","nx":2049,"ny":2048,"measurements":1})",
           // Within the node bound, but 2²² nodes x 100 measurements is
           // 3.2 GiB per measurement matrix.
           R"({"op":"learn_synthetic","graph":"grid2d","nx":2048,"ny":2048,"measurements":100})",
           R"({"op":"learn_synthetic","graph":"grid2d","nx":1000,"ny":1000,"measurements":2147483647})",
       }) {
    const std::string response = handle_request(engine, request).response;
    EXPECT_EQ(error_code_of(response), "bad-request") << request;
    EXPECT_NE(error_message_of(response).find("exceeds the limit"),
              std::string::npos)
        << response;
  }
  EXPECT_EQ(engine.stats().learns, 0);
}

TEST(ServeProtocol, LearnSyntheticSolveAndStats) {
  ServeEngine engine;
  const ProtocolResult learned = handle_request(
      engine,
      R"({"op":"learn_synthetic","graph":"grid2d","nx":8,"ny":8,"measurements":40})");
  const JsonValue lv = json_parse(learned.response);
  ASSERT_TRUE(lv.find("ok")->as_bool()) << learned.response;
  EXPECT_EQ(lv.find("num_nodes")->as_number(), 64.0);

  // Solve with a centered two-spike right-hand side.
  std::string solve_req = R"({"op":"solve","rhs":[1)";
  for (int i = 1; i < 63; ++i) solve_req += ",0";
  solve_req += R"(,-1]})";
  const ProtocolResult solved = handle_request(engine, solve_req);
  const JsonValue sv = json_parse(solved.response);
  ASSERT_TRUE(sv.find("ok")->as_bool()) << solved.response;
  EXPECT_EQ(sv.find("x")->as_array().size(), 64U);

  const ProtocolResult stats =
      handle_request(engine, R"({"op":"stats"})");
  const JsonValue tv = json_parse(stats.response);
  EXPECT_EQ(tv.find("learns")->as_number(), 1.0);
  EXPECT_EQ(tv.find("requests")->as_number(), 1.0);
}

TEST(ServeProtocol, ActivateByKeySwitchesGraphs) {
  ServeEngine engine;
  const JsonValue first = json_parse(
      handle_request(
          engine,
          R"({"op":"load_graph","num_nodes":3,"edges":[[0,1],[1,2]]})")
          .response);
  ASSERT_TRUE(first.find("ok")->as_bool());
  const std::string key_json = json_serialize(*first.find("key"));
  const JsonValue second = json_parse(
      handle_request(
          engine,
          R"({"op":"load_graph","num_nodes":2,"edges":[[0,1]]})")
          .response);
  ASSERT_TRUE(second.find("ok")->as_bool());

  const ProtocolResult activated = handle_request(
      engine, std::string(R"({"op":"activate","key":)") + key_json + "}");
  ASSERT_TRUE(json_parse(activated.response).find("ok")->as_bool())
      << activated.response;
  const JsonValue info =
      json_parse(handle_request(engine, R"({"op":"info"})").response);
  EXPECT_EQ(info.find("num_nodes")->as_number(), 3.0);
  EXPECT_EQ(json_serialize(*info.find("key")), key_json);
}

TEST(ServeProtocol, ShutdownSetsTheFlag) {
  ServeEngine engine;
  const ProtocolResult r = handle_request(engine, R"({"op":"shutdown"})");
  EXPECT_TRUE(r.shutdown);
  EXPECT_TRUE(json_parse(r.response).find("ok")->as_bool());
  EXPECT_FALSE(handle_request(engine, R"({"op":"info"})").shutdown);
}

TEST(ServeProtocol, BatchedAndSerialServersProduceIdenticalBytes) {
  // Same request stream against a width-16 engine and a width-1 engine:
  // every response line must be byte-identical (the solver's block
  // bit-equality contract, surfaced end to end through the JSON layer).
  ServeOptions batched_options;
  batched_options.batch_width = 16;
  ServeEngine batched(batched_options);
  ServeOptions serial_options;
  serial_options.batch_width = 1;
  ServeEngine serial(serial_options);

  const std::string load =
      R"({"op":"learn_synthetic","graph":"grid2d","nx":10,"ny":10,"measurements":40})";
  ASSERT_EQ(handle_request(batched, load).response,
            handle_request(serial, load).response);

  std::vector<std::string> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(R"({"op":"resistance","s":)" + std::to_string(i) +
                       R"(,"t":)" + std::to_string(99 - i) + "}");
  }
  requests.push_back(
      R"({"op":"resistance_batch","pairs":[[0,1],[1,2],[3,50],[98,99]]})");
  requests.push_back(R"({"op":"embedding"})");
  for (const std::string& request : requests) {
    EXPECT_EQ(handle_request(batched, request).response,
              handle_request(serial, request).response)
        << request;
  }
}

}  // namespace
}  // namespace sgl::serve
