#include "trace.hpp"

#include "util/json_writer.hpp"

namespace perfbench {

bool Tracer::on_owner_thread() noexcept {
  if (std::this_thread::get_id() == owner_) return true;
  well_nested_ = false;
  return false;
}

int Tracer::begin(const std::string& name) {
  if (!on_owner_thread()) return -1;
  Span s;
  s.name = name;
  s.start_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            origin_)
                  .count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

bool Tracer::end(int id) noexcept {
  if (!on_owner_thread()) return false;
  if (open_.empty() || open_.back() != id) {
    well_nested_ = false;
    return false;
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    origin_)
          .count();
  return true;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.duration();
    }
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans,
                                                int run) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (run >= 0 && spans[i].run != run) continue;
    LayerTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_s += spans[i].duration();
    t.self_s += self[i];
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  mali::util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.name.substr(0, s.name.find('.')));
    w.key("ph").value("X");
    w.key("ts").value(s.start_s * 1e6);
    w.key("dur").value(s.duration() * 1e6);
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("args").begin_object();
    w.key("span").value(static_cast<int>(i));
    w.key("parent").value(s.parent);
    w.key("run").value(s.run);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
