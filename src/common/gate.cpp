#include "common/gate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/json.hpp"

namespace extradeep::gate {

namespace {

bool rule_matches(const Rule& rule, const Sample& sample) {
    if (sample.metric != rule.metric) {
        return false;
    }
    if (rule.scope != "*" && rule.scope != sample.scope) {
        return false;
    }
    if (rule.noise >= 0.0 && std::abs(rule.noise - sample.noise) > 1e-12) {
        return false;
    }
    return true;
}

}  // namespace

Outcome check_rules(const std::vector<Sample>& samples,
                    const std::vector<Rule>& rules) {
    Outcome out;
    out.rules_checked = rules.size();
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
        const Rule& rule = rules[ri];
        std::size_t matched = 0;
        for (std::size_t si = 0; si < samples.size(); ++si) {
            const Sample& sample = samples[si];
            if (!rule_matches(rule, sample)) {
                continue;
            }
            ++matched;
            if (rule.min && sample.value < *rule.min) {
                out.violations.push_back(
                    {Violation::Kind::BelowMin, ri, si, *rule.min});
            }
            if (rule.max && sample.value > *rule.max) {
                out.violations.push_back(
                    {Violation::Kind::AboveMax, ri, si, *rule.max});
            }
        }
        if (matched == 0) {
            out.violations.push_back({Violation::Kind::Unmatched, ri, 0, 0.0});
        }
        out.samples_matched += matched;
    }
    out.pass = out.violations.empty();
    return out;
}

std::vector<Rule> parse_rules(const std::string& json_text) {
    const std::string what = "thresholds JSON";
    const json::Value doc = json::parse(json_text, what);
    if (doc.kind != json::Value::Kind::Object) {
        throw ParseError(what + ": top level must be an object");
    }
    const json::Value* list = doc.find("thresholds");
    if (list == nullptr || list->kind != json::Value::Kind::Array) {
        throw ParseError(what + ": missing \"thresholds\" array");
    }
    std::vector<Rule> out;
    out.reserve(list->array.size());
    for (const json::Value& entry : list->array) {
        if (entry.kind != json::Value::Kind::Object) {
            throw ParseError(what + ": rule must be an object");
        }
        Rule rule;
        if (const json::Value* v = entry.find("case")) {
            if (v->kind != json::Value::Kind::String) {
                throw ParseError(what + ": \"case\" must be a string");
            }
            rule.scope = v->string;
        }
        if (const json::Value* v = entry.find("noise")) {
            if (v->kind != json::Value::Kind::Number) {
                throw ParseError(what + ": \"noise\" must be a number");
            }
            rule.noise = v->number;
        }
        const json::Value* metric = entry.find("metric");
        if (metric == nullptr || metric->kind != json::Value::Kind::String ||
            metric->string.empty()) {
            throw ParseError(what + ": rule lacks a \"metric\" string");
        }
        rule.metric = metric->string;
        if (const json::Value* v = entry.find("min")) {
            if (v->kind != json::Value::Kind::Number) {
                throw ParseError(what + ": \"min\" must be a number");
            }
            rule.min = v->number;
        }
        if (const json::Value* v = entry.find("max")) {
            if (v->kind != json::Value::Kind::Number) {
                throw ParseError(what + ": \"max\" must be a number");
            }
            rule.max = v->number;
        }
        if (!rule.min && !rule.max) {
            throw ParseError(what + ": rule for metric '" + rule.metric +
                             "' has neither \"min\" nor \"max\"");
        }
        out.push_back(std::move(rule));
    }
    if (out.empty()) {
        throw ParseError(what + ": empty thresholds array");
    }
    return out;
}

}  // namespace extradeep::gate
